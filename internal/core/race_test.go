package core

import (
	"fmt"
	"sync"
	"testing"

	"lexequal/internal/phoneme"
	"lexequal/internal/script"
)

// TestOperatorConcurrentTransform hammers the phoneme cache from many
// goroutines with more distinct keys than the cache holds, so the
// wholesale-reset path interleaves with concurrent readers. The test is
// meaningful under `make race`: it guards the lock-free cacheCap gating
// in Transform against regressions that reintroduce the unsynchronized
// cache-map read.
func TestOperatorConcurrentTransform(t *testing.T) {
	op := MustNew(Options{CacheSize: 8})
	words := make([]string, 32)
	for i := range words {
		words[i] = fmt.Sprintf("philosopher%d", i)
	}
	want := make([]string, len(words))
	for i, w := range words {
		p, err := op.Transform(w, script.English)
		if err != nil {
			t.Fatalf("Transform(%q): %v", w, err)
		}
		want[i] = p.IPA()
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				i := (g + round) % len(words)
				p, err := op.Transform(words[i], script.English)
				if err != nil {
					t.Errorf("Transform(%q): %v", words[i], err)
					return
				}
				if got := p.IPA(); got != want[i] {
					t.Errorf("Transform(%q) = %q, want %q", words[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOperatorConcurrentMatch runs full Match calls from concurrent
// goroutines and checks every outcome agrees with a sequential
// baseline, covering the Transform cache and the shared cost model.
func TestOperatorConcurrentMatch(t *testing.T) {
	op := MustNew(Options{})
	pairs := []struct{ a, b Text }{
		{Text{"color", script.English}, Text{"colour", script.English}},
		{Text{"color", script.English}, Text{"philosophy", script.English}},
		{Text{"tokyo", script.Japanese}, Text{"tokyo", script.English}},
	}
	want := make([]Result, len(pairs))
	for i, pr := range pairs {
		r, err := op.Match(pr.a, pr.b, -1)
		if err != nil {
			t.Fatalf("Match(%s, %s): %v", pr.a, pr.b, err)
		}
		want[i] = r
	}
	if want[2] != NoResource {
		t.Fatalf("Match on an unregistered language = %v, want NORESOURCE", want[2])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, pr := range pairs {
					r, err := op.Match(pr.a, pr.b, -1)
					if err != nil {
						t.Errorf("Match(%s, %s): %v", pr.a, pr.b, err)
						return
					}
					if r != want[i] {
						t.Errorf("Match(%s, %s) = %v, want %v", pr.a, pr.b, r, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCorpusConcurrentFirstProbe starts q-gram and indexed selections
// from several goroutines on a corpus built by NewCorpusPhonemes, whose
// probe indexes do not exist until the first such query: whichever
// goroutine builds them, every answer must equal a serial run's on an
// eagerly indexed corpus.
func TestCorpusConcurrentFirstProbe(t *testing.T) {
	op := MustNew(Options{})
	texts := catalog()
	eager, err := op.NewCorpus(texts)
	if err != nil {
		t.Fatal(err)
	}
	phons := make([]phoneme.String, len(texts))
	for i := range texts {
		phons[i] = eager.Phonemes(i)
	}
	lazy, err := op.NewCorpusPhonemes(texts, phons, DefaultQ)
	if err != nil {
		t.Fatal(err)
	}
	strats := []Strategy{QGram, Indexed}
	want := make([][]int, len(strats))
	for i, s := range strats {
		if want[i], _, err = eager.Select(texts[0], 0.3, nil, s); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := lazy.Select(texts[0], 0.3, nil, strats[i], Parallel(2))
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want[i]) {
				t.Errorf("%v select = %v, %v; want %v", strats[i], got, err, want[i])
			}
		}(g % len(strats))
	}
	wg.Wait()
}
