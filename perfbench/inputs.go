package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/ttp"
	"lexequal/perfbench/refmatch"
)

// threshold is the paper's explicit operating point; every statement
// names it, so no session default is involved.
const threshold = 0.25

// witnessRow and witnessQuery are the fixed pair behind the stored
// pname round-trip fault: RobertSharon's /t/+/ʃ/ is stored as "tʃ" and
// decodes as the affricate, which brings it within 2.5 of राजरशैरान
// (the reference distance is 2.75). Every table holds both names,
// whatever the seed, so the statements that show the fault are the
// same in every run.
var (
	witnessRow   = core.Text{Value: "RobertSharon", Lang: script.English}
	witnessQuery = core.Text{Value: "राजरशैरान", Lang: script.Hindi}
)

var langs = []script.Language{script.English, script.Hindi, script.Tamil}

// query is one distinct selection statement with its reference answer.
type query struct {
	text core.Text
	stmt string
	phon phoneme.String
	// want holds the loaded row ids the reference matcher accepts;
	// wantDB the ids it accepts when stored rows are read back through
	// the pname round trip, which is what the db plans see. They differ
	// only for the witness statement.
	want, wantDB []int
	// insWant marks the insert-pool entries the query matches (mixed).
	insWant []bool
}

// faultNote records one statement whose answer the round-trip fault
// changes.
type faultNote struct {
	stmt  string
	diffs []string
}

// inputs is everything a workload needs, built from the seed before
// set-up and outside every timed window.
type inputs struct {
	spec   spec
	op     *core.Operator
	loaded []core.Text
	phon   []phoneme.String
	// rt holds, for the loaded rows whose stored pname decodes to a
	// different phoneme string, the string the db plans see.
	rt map[int]phoneme.String

	inserts []core.Text
	insPhon []phoneme.String

	pool    []*query
	witness *query
	// excluded lists pool candidates left out because the round-trip
	// fault changes their answer on this seed (see README).
	excluded []faultNote

	// join: reference pairs (ordered, with the diagonal) and the pairs
	// the db plans see through the round trip.
	joinWant, joinWantDB map[[2]int]bool

	// rms are reference matchers, one per goroutine of answer.
	rms [2]*refmatch.Matcher

	faultMu     sync.Mutex
	faultLogged map[string]bool
}

func buildInputs(sp spec, seed int64) (*inputs, error) {
	op, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		return nil, err
	}
	gen := dataset.Generate(lex, dataset.DefaultGeneratedSize)
	wi, wq := -1, -1
	for i, e := range gen {
		switch e.Text {
		case witnessRow:
			wi = i
		case witnessQuery:
			wq = i
		}
	}
	if wi < 0 || wq < 0 {
		return nil, fmt.Errorf("witness names missing from the generated set")
	}
	rng := rand.New(rand.NewSource(seed))
	var rest []core.Text
	for _, i := range rng.Perm(len(gen)) {
		if i != wi && i != wq {
			rest = append(rest, gen[i].Text)
		}
	}
	in := &inputs{spec: sp, op: op, rt: map[int]phoneme.String{}}
	for i := range in.rms {
		in.rms[i] = refmatch.New(op.Cost())
	}
	in.loaded = append([]core.Text{witnessRow, witnessQuery}, rest[:sp.rows-2]...)
	rng.Shuffle(len(in.loaded), func(i, j int) { in.loaded[i], in.loaded[j] = in.loaded[j], in.loaded[i] })
	heldOut := rest[sp.rows-2 : sp.rows-2+heldOutRows]

	in.phon = make([]phoneme.String, len(in.loaded))
	for i, t := range in.loaded {
		if in.phon[i], err = op.Transform(t.Value, t.Lang); err != nil {
			return nil, err
		}
		if back := phoneme.ParseLenient(in.phon[i].IPA()); !back.Equal(in.phon[i]) {
			in.rt[i] = back
		}
	}
	if sp.mixed {
		in.inserts = heldOut[:insertPool]
		in.insPhon = make([]phoneme.String, len(in.inserts))
		for i, t := range in.inserts {
			if in.insPhon[i], err = op.Transform(t.Value, t.Lang); err != nil {
				return nil, err
			}
		}
	}
	if sp.join {
		in.buildJoin()
		return in, nil
	}
	if err := in.buildPool(rng, heldOut); err != nil {
		return nil, err
	}
	return in, nil
}

// stmtFor renders the selection statement for a query text. Only ids
// are selected, so answers stay far below the frame cap.
func stmtFor(t core.Text) string {
	return fmt.Sprintf("SELECT id FROM names WHERE name LEXEQUAL '%s' LANG %s THRESHOLD %.2f",
		strings.ReplaceAll(t.Value, "'", "''"), t.Lang, threshold)
}

// answer runs the reference over every loaded row, split across the
// available processors.
func (in *inputs) answer(qp phoneme.String) (want, wantDB []int) {
	parts := len(in.rms)
	hits := make([][]int, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rm := in.rms[p]
			for i := p; i < len(in.phon); i += parts {
				if rm.Match(qp, in.phon[i], threshold) {
					hits[p] = append(hits[p], i)
				}
			}
		}(p)
	}
	wg.Wait()
	want = append(hits[0], hits[1]...)
	sort.Ints(want)
	in2 := map[int]bool{}
	for _, i := range want {
		in2[i] = true
	}
	rm := in.rms[0]
	for i, back := range in.rt {
		in2[i] = rm.Match(qp, back, threshold)
	}
	for i, ok := range in2 {
		if ok {
			wantDB = append(wantDB, i)
		}
	}
	sort.Ints(wantDB)
	return want, wantDB
}

func (in *inputs) newQuery(t core.Text) (*query, error) {
	qp, err := in.op.Transform(t.Value, t.Lang)
	if err != nil {
		return nil, err
	}
	q := &query{text: t, stmt: stmtFor(t), phon: qp}
	q.want, q.wantDB = in.answer(qp)
	if in.spec.mixed {
		q.insWant = make([]bool, len(in.insPhon))
		rm := in.rms[0]
		for i, p := range in.insPhon {
			q.insWant[i] = rm.Match(qp, p, threshold)
		}
	}
	return q, nil
}

// diffNotes describes the rows on which two answers differ, with both
// phoneme strings of each row.
func (in *inputs) diffNotes(a, b []int) []string {
	var out []string
	for _, id := range symDiff(a, b) {
		if id < 0 || id >= len(in.loaded) {
			out = append(out, fmt.Sprintf("id %d is no loaded row", id))
			continue
		}
		note := fmt.Sprintf("id %d %s: ttp /%s/", id, in.loaded[id], spaced(in.phon[id]))
		if back, ok := in.rt[id]; ok {
			note += fmt.Sprintf(" stored-decoded /%s/", spaced(back))
		}
		out = append(out, note)
	}
	return out
}

// buildPool draws the seeded pool of distinct selection statements:
// half the texts from loaded rows and half from held-out rows, cycling
// through the three scripts. A candidate whose answer the round-trip
// fault changes on this seed is left out and logged; the fault is
// counted through the fixed witness statement instead (see README).
func (in *inputs) buildPool(rng *rand.Rand, heldOut []core.Text) error {
	w, err := in.newQuery(witnessQuery)
	if err != nil {
		return err
	}
	if equalInts(w.want, w.wantDB) {
		return fmt.Errorf("witness statement is unaffected by the round-trip fault")
	}
	in.witness = w
	byLang := func(src []core.Text) map[script.Language][]core.Text {
		m := map[script.Language][]core.Text{}
		for _, i := range rng.Perm(len(src)) {
			m[src[i].Lang] = append(m[src[i].Lang], src[i])
		}
		return m
	}
	sources := []map[script.Language][]core.Text{byLang(in.loaded), byLang(heldOut)}
	seen := map[core.Text]bool{witnessRow: true, witnessQuery: true}
	for k := 0; len(in.pool) < in.spec.pool; k++ {
		src := k % 2
		lang := langs[(k/2)%len(langs)]
		for {
			cands := sources[src][lang]
			if len(cands) == 0 {
				return fmt.Errorf("query pool exhausted for %s", lang)
			}
			t := cands[0]
			sources[src][lang] = cands[1:]
			if seen[t] {
				continue
			}
			seen[t] = true
			q, err := in.newQuery(t)
			if err != nil {
				return err
			}
			if !equalInts(q.want, q.wantDB) {
				note := faultNote{stmt: q.stmt, diffs: in.diffNotes(q.want, q.wantDB)}
				in.excluded = append(in.excluded, note)
				fmt.Fprintf(os.Stderr, "perfbench: round-trip fault changes %q; left out of the pool: %s\n",
					note.stmt, strings.Join(note.diffs, "; "))
				continue
			}
			in.pool = append(in.pool, q)
			break
		}
	}
	return nil
}

// buildJoin computes the reference self-join: every ordered pair of
// loaded rows that match, the diagonal included, as the db join
// returns it.
func (in *inputs) buildJoin() {
	n := len(in.phon)
	parts := len(in.rms)
	found := make([][][2]int, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rm := in.rms[p]
			for i := p; i < n; i += parts {
				for j := i + 1; j < n; j++ {
					if rm.Match(in.phon[i], in.phon[j], threshold) {
						found[p] = append(found[p], [2]int{i, j})
					}
				}
			}
		}(p)
	}
	wg.Wait()
	in.joinWant = map[[2]int]bool{}
	for _, part := range found {
		for _, pr := range part {
			in.joinWant[pr] = true
			in.joinWant[[2]int{pr[1], pr[0]}] = true
		}
	}
	for i := range in.phon {
		if len(in.phon[i]) > 0 {
			in.joinWant[[2]int{i, i}] = true
		}
	}
	in.joinWantDB = map[[2]int]bool{}
	for pr := range in.joinWant {
		in.joinWantDB[pr] = true
	}
	view := func(i int) phoneme.String {
		if back, ok := in.rt[i]; ok {
			return back
		}
		return in.phon[i]
	}
	rm := in.rms[0]
	for i := range in.rt {
		for j := 0; j < n; j++ {
			ok := rm.Match(view(i), view(j), threshold)
			for _, pr := range [][2]int{{i, j}, {j, i}} {
				if ok {
					in.joinWantDB[pr] = true
				} else {
					delete(in.joinWantDB, pr)
				}
			}
		}
	}
}

// joinFaultNotes describes the join pairs the round-trip fault changes,
// with the phoneme strings of the rows whose stored pname decodes
// differently.
func (in *inputs) joinFaultNotes() []string {
	var out []string
	note := func(kind string, pr [2]int) {
		out = append(out, fmt.Sprintf("%s pair (%d, %d)", kind, pr[0], pr[1]))
	}
	for pr := range in.joinWantDB {
		if !in.joinWant[pr] {
			note("extra", pr)
		}
	}
	for pr := range in.joinWant {
		if !in.joinWantDB[pr] {
			note("missing", pr)
		}
	}
	sort.Strings(out)
	ids := make([]int, 0, len(in.rt))
	for id := range in.rt {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return append(out, in.diffNotes(ids, nil)...)
}

// spaced renders a phoneme string one phoneme at a time, so that /t/+/ʃ/
// and /tʃ/ read differently.
func spaced(p phoneme.String) string {
	parts := make([]string, len(p))
	for i, x := range p {
		parts[i] = x.IPA()
	}
	return strings.Join(parts, " ")
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// symDiff returns the sorted ids in exactly one of two sorted slices.
func symDiff(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			i++
			j++
		}
	}
	return out
}
