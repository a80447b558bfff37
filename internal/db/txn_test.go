package db

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/script"
	"lexequal/internal/store"
)

// TestLoggedLoadPoolExhaustedOneError loads more than a tiny buffer
// pool holds in one logged transaction: uncommitted pages cannot be
// evicted, so the load fails. It must fail with exactly one error — the
// typed pool exhaustion — not joined with a spurious report that the
// rolled-back transaction was already finished.
func TestLoggedLoadPoolExhaustedOneError(t *testing.T) {
	d, err := OpenOpts(t.TempDir(), Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	var texts []core.Text
	for i := 0; i < 2000; i++ {
		texts = append(texts, core.Text{Value: fmt.Sprintf("Nehru%c%c", 'a'+i%26, 'a'+i/26%26), Lang: script.English})
	}
	_, err = CreateNameTable(d, "names", core.MustNew(core.Options{}), texts, NameTableSpec{WithAux: true, WithIndexes: true})
	if err == nil {
		t.Fatal("load into an 8-page pool succeeded")
	}
	if !errors.Is(err, store.ErrPoolExhausted) {
		t.Errorf("load error %v does not match ErrPoolExhausted", err)
	}
	if n := countErrors(err); n != 1 {
		t.Errorf("load failed with %d errors: %v", n, err)
	}
	if strings.Contains(err.Error(), "transaction already finished") {
		t.Errorf("load error reports a finished transaction: %v", err)
	}
}

// countErrors counts the leaf errors of an error tree (errors.Join
// branches, followed through single-error wrapping).
func countErrors(err error) int {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		n := 0
		for _, e := range joined.Unwrap() {
			n += countErrors(e)
		}
		return n
	}
	if inner := errors.Unwrap(err); inner != nil {
		return countErrors(inner)
	}
	return 1
}
