package sql

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/db"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/ttp"
)

// identityTexts is the table the db ≡ core identity test loads: the
// lexicon entries whose plain IPA fuses on decode (/t/+/ʃ/ read back as
// /tʃ/, /t/+/s/ as /ts/) with their whole tag groups, a fixed sample of
// the rest of the lexicon, and the weak-phoneme lexicon whose
// /ha/~/ka/ edits exercise the q-gram budget slack.
func identityTexts(t *testing.T, op *core.Operator) []core.Text {
	t.Helper()
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		t.Fatal(err)
	}
	fusedTags := map[int]bool{}
	for _, e := range lex.Entries {
		p, err := op.Transform(e.Text.Value, e.Text.Lang)
		if err == nil && !phoneme.ParseLenient(p.IPA()).Equal(p) {
			fusedTags[e.Tag] = true
		}
	}
	if len(fusedTags) == 0 {
		t.Fatal("no lexicon entry fuses under plain IPA")
	}
	var texts []core.Text
	for i, e := range lex.Entries {
		if fusedTags[e.Tag] || i%60 == 0 {
			texts = append(texts, e.Text)
		}
	}
	for _, w := range []string{
		"Ha", "Ka", "Hahn", "Kahn", "Khan", "Han", "Aha",
		"Hoho", "Koko", "Oh", "Nehru", "Neru", "Kathy", "Cathy",
	} {
		texts = append(texts, core.Text{Value: w, Lang: script.English})
	}
	return texts
}

// recorded runs one db plan with fresh counters and returns its rows and
// the Stats it recorded.
func recorded(t *testing.T, cfg *db.LexConfig, node func() db.Node) ([]db.Row, core.Stats) {
	t.Helper()
	cfg.Counters = &metrics.PipelineCounters{}
	rows, err := db.Collect(node())
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Counters.Snapshot()
	return rows, core.Stats{
		Rows: int(s.Rows), Candidates: int(s.Candidates), Matches: int(s.Matches),
		PrunedLength: int(s.PrunedLength), PrunedCount: int(s.PrunedCount), PrunedSig: int(s.PrunedSig),
		DPCells: s.DPCells, SigCacheHits: int(s.SigCacheHits),
		BitvecOps: s.BitvecOps, ScalarFallbacks: int(s.ScalarFallbacks), BatchesBuilt: int(s.BatchesBuilt),
	}
}

// canon is Stats.Canon without BatchesBuilt: a db plan materializes its
// candidate batch per query, the in-memory corpus once at build time.
func canon(st core.Stats) core.Stats {
	st = st.Canon()
	st.BatchesBuilt = 0
	return st
}

// TestDBPlansMatchCore pins every db LexEQUAL plan to core's strategy
// on the same texts: each selection returns the ids Corpus.Select
// returns and each self-join the pairs core.Join returns, with
// identical kernel-independent Stats wherever both see the same rows
// (every join, and the naive and indexed selections; the q-gram
// selection fetches only probed rows and swept ones). The stored pname
// must decode to the transform for this to hold.
func TestDBPlansMatchCore(t *testing.T) {
	s := newTestSession(t)
	op := s.Op
	texts := identityTexts(t, op)
	if _, err := db.CreateNameTable(s.DB, "names", op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
	cfg, err := db.ResolveLexConfig(s.DB, "names", op)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	strategies := []core.Strategy{core.Naive, core.QGram, core.Indexed}
	thresholds := []float64{0.25, 0.4}

	corpus, err := op.NewCorpus(texts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range texts {
		if !op.Registry().Has(q.Lang) {
			continue
		}
		for _, thr := range thresholds {
			for _, strat := range strategies {
				want, wantSt, err := corpus.Select(q, thr, nil, strat)
				if err != nil {
					t.Fatal(err)
				}
				var plan func() db.Node
				switch strat {
				case core.Naive:
					plan = func() db.Node { return db.NewLexScanNaive(cfg, q, thr, nil) }
				case core.QGram:
					plan = func() db.Node { return db.NewLexScanQGram(cfg, q, thr, nil) }
				default:
					plan = func() db.Node { return db.NewLexScanIndexed(cfg, q, thr, nil) }
				}
				rows, st := recorded(t, cfg, plan)
				got := make([]int, len(rows))
				for i, r := range rows {
					got[i] = int(r[cfg.IDCol].I)
				}
				sort.Ints(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s select %v @%v: db %v, core %v", strat, q, thr, got, want)
				}
				if strat != core.QGram && canon(st) != canon(wantSt) {
					t.Errorf("%s select %v @%v: db stats %+v, core %+v", strat, q, thr, canon(st), canon(wantSt))
				}
			}
		}
	}

	// A row inserted through SQL carries a NULL pname: the plans decode
	// it through the transform fallback like core does.
	inserted := core.Text{Value: "Nehru", Lang: script.English}
	mustExec(t, s, fmt.Sprintf(`INSERT INTO names VALUES (%d, '%s' LANG english, NULL, NULL)`, len(texts), inserted.Value))
	texts = append(texts, inserted)
	corpus, err = op.NewCorpus(texts)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Text{Value: "Neru", Lang: script.English}
	want, _, err := corpus.Select(q, 0.4, nil, core.Naive)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := recorded(t, cfg, func() db.Node { return db.NewLexScanNaive(cfg, q, 0.4, nil) })
	if !containsRow(rows, cfg, len(texts)-1) || !containsInt(want, len(texts)-1) {
		t.Errorf("naive select of %v misses the SQL-inserted %v: db %d rows, core %v", q, inserted, len(rows), want)
	}

	type pair struct{ l, r int }
	w := len(cfg.Table.Columns)
	var naiveJoin map[pair]bool
	for _, thr := range thresholds {
		for _, strat := range strategies {
			pairs, wantSt, err := core.Join(corpus, corpus, thr, false, strat, core.Parallel(2))
			if err != nil {
				t.Fatal(err)
			}
			wantSet := map[pair]bool{}
			for _, p := range pairs {
				wantSet[pair{p.Left, p.Right}] = true
			}
			rows, st := recorded(t, cfg, func() db.Node { return db.NewLexJoin(cfg, cfg, thr, false, strat) })
			got := map[pair]bool{}
			for _, r := range rows {
				got[pair{int(r[cfg.IDCol].I), int(r[w+cfg.IDCol].I)}] = true
			}
			if !reflect.DeepEqual(got, wantSet) || len(rows) != len(pairs) {
				t.Errorf("%s join @%v: db %d pairs, core %d", strat, thr, len(rows), len(pairs))
			}
			if canon(st) != canon(wantSt) {
				t.Errorf("%s join @%v: db stats %+v, core %+v", strat, thr, canon(st), canon(wantSt))
			}
			switch strat {
			case core.Naive:
				naiveJoin = got
			case core.QGram:
				if !reflect.DeepEqual(got, naiveJoin) {
					t.Errorf("qgram join @%v differs from the naive join", thr)
				}
			}
		}
		if !naiveJoin[pair{len(texts) - 1, len(texts) - 1}] {
			t.Errorf("join @%v lacks the SQL-inserted row's self-pair", thr)
		}
	}
}

func containsRow(rows []db.Row, cfg *db.LexConfig, id int) bool {
	for _, r := range rows {
		if int(r[cfg.IDCol].I) == id {
			return true
		}
	}
	return false
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
