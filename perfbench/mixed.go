package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/server"
)

// outstandingRows is how many inserted rows the mixed writer keeps
// before it starts deleting the oldest.
const outstandingRows = 32

// rowLife records, on the writer's logical clock, when an inserted
// row's INSERT and DELETE were sent and acknowledged (0 = not yet).
type rowLife struct{ insSent, insAck, delSent, delAck int64 }

// writer is the mixed workload's autocommit writer. Inserted row k
// gets id rows+k and the text inserts[k mod len(inserts)].
type writer struct {
	in    *inputs
	c     *server.Client
	clock atomic.Int64

	mu     sync.Mutex
	lives  []rowLife
	oldest int // first inserted row not yet deleted
}

func insertStmt(id int, t core.Text) string {
	return fmt.Sprintf("INSERT INTO names VALUES (%d, '%s' LANG %s, NULL, NULL)",
		id, strings.ReplaceAll(t.Value, "'", "''"), t.Lang)
}

// run inserts held-out names and, once outstandingRows are live,
// deletes the oldest, until stop is closed.
func (w *writer) run(t *tally, stop <-chan struct{}, traced bool, nextRID func() int64) error {
	start := time.Now()
	defer func() { t.writeS = time.Since(start).Seconds() }()
	n := len(w.in.loaded)
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		w.mu.Lock()
		k, insert := len(w.lives), len(w.lives)-w.oldest < outstandingRows
		if insert {
			w.lives = append(w.lives, rowLife{insSent: w.clock.Add(1)})
		} else {
			k = w.oldest
			w.oldest++
			w.lives[k].delSent = w.clock.Add(1)
		}
		w.mu.Unlock()

		stmt, want := fmt.Sprintf("DELETE FROM names WHERE id = %d", n+k), "1 row(s) deleted\n"
		if insert {
			stmt, want = insertStmt(n+k, w.in.inserts[k%len(w.in.inserts)]), "1 row(s) inserted\n"
		}
		s0 := time.Now()
		body, err := w.c.Query(stmt)
		s1 := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", stmt, err)
		}
		if body != want {
			t.bad("%s: answered %q", stmt, body)
		}
		ms := s1.Sub(s0).Seconds() * 1000
		w.mu.Lock()
		if insert {
			w.lives[k].insAck = w.clock.Add(1)
		} else {
			w.lives[k].delAck = w.clock.Add(1)
		}
		w.mu.Unlock()
		t.mu.Lock()
		if insert {
			t.insertMS = append(t.insertMS, ms)
		} else {
			t.deleteMS = append(t.deleteMS, ms)
		}
		if traced {
			t.wires = append(t.wires, wireCall{rid: nextRID(), stmt: stmt, start: s0, end: s1, write: true})
		}
		t.mu.Unlock()
	}
}

// checkRead applies snapshot semantics to one mixed read sent at
// logical time tSend and answered at tRecv: loaded rows must match the
// reference exactly; an inserted row acknowledged before the send and
// not deleted before the answer must appear if the reference matches
// it; a row whose write was in flight may appear only if the reference
// matches it; any other row must not appear.
func (w *writer) checkRead(t *tally, in *inputs, q *query, ids []int, tSend, tRecv int64) {
	n := len(in.loaded)
	var loaded []int
	got := map[int]bool{}
	for _, id := range ids {
		if id < n {
			loaded = append(loaded, id)
		} else {
			got[id] = true
		}
	}
	if !equalInts(loaded, q.want) {
		t.bad("%s: answer differs from the reference on %s", q.stmt, strings.Join(in.diffNotes(loaded, q.want), "; "))
	}
	w.mu.Lock()
	lives := append([]rowLife(nil), w.lives...)
	w.mu.Unlock()
	for k, l := range lives {
		id := n + k
		matches := q.insWant[k%len(in.inserts)]
		present := l.insAck != 0 && l.insAck < tSend && (l.delSent == 0 || l.delSent > tRecv)
		absent := l.insSent > tRecv || (l.delAck != 0 && l.delAck < tSend)
		switch {
		case got[id] && (!matches || absent):
			t.bad("%s: returned inserted row %d (%s), which it cannot see or which does not match", q.stmt, id, in.inserts[k%len(in.inserts)])
		case !got[id] && matches && present:
			t.bad("%s: missed inserted row %d (%s), acknowledged before the read", q.stmt, id, in.inserts[k%len(in.inserts)])
		}
		delete(got, id)
	}
	for id := range got {
		t.bad("%s: returned row %d, which was never inserted", q.stmt, id)
	}
}

// expectedIDs is the table's id set once every write has been
// acknowledged: the loaded rows plus acknowledged inserts minus
// acknowledged deletes.
func (w *writer) expectedIDs() []int {
	n := len(w.in.loaded)
	ids := make([]int, 0, n+outstandingRows)
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for k, l := range w.lives {
		if l.insAck != 0 && l.delAck == 0 {
			ids = append(ids, n+k)
		}
	}
	sort.Ints(ids)
	return ids
}
