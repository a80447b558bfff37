package core

import (
	"fmt"
	"sort"
	"sync"

	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
	"lexequal/internal/script"
	"lexequal/internal/soundex"
)

// Strategy names the three execution plans of §5.
type Strategy uint8

// Execution strategies for LexEQUAL selections and joins.
const (
	Naive   Strategy = iota // call the UDF on every row (Table 1)
	QGram                   // q-gram filters, then the UDF (Table 2)
	Indexed                 // phonetic index probe, then the UDF (Table 3)
)

func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case QGram:
		return "qgram"
	case Indexed:
		return "indexed"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ParseStrategy resolves a strategy name from CLI/SQL settings.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "naive", "udf":
		return Naive, nil
	case "qgram", "qgrams":
		return QGram, nil
	case "indexed", "index", "phonetic":
		return Indexed, nil
	default:
		return Naive, fmt.Errorf("core: unknown strategy %q", s)
	}
}

// LangSet filters match targets by language: the INLANGUAGES clause.
// A nil LangSet is the * wildcard (all languages).
type LangSet map[script.Language]bool

// NewLangSet builds a set from a list; an empty list yields the
// wildcard nil set.
func NewLangSet(langs ...script.Language) LangSet {
	if len(langs) == 0 {
		return nil
	}
	s := make(LangSet, len(langs))
	for _, l := range langs {
		s[l] = true
	}
	return s
}

// Contains reports whether lang passes the filter.
func (s LangSet) Contains(lang script.Language) bool { return s == nil || s[lang] }

// Stats counts the work a strategy performed, for the efficiency
// experiments: how many rows the cheap phase admitted as candidates,
// how many each filter pruned, how much DP work verification cost, and
// how many survived. All fields are order-independent sums, so a
// parallel execution reports totals byte-identical to the serial one.
type Stats struct {
	Rows       int // rows considered (after the language filter)
	Candidates int // rows reaching the edit-distance verification
	Matches    int // rows in the final result

	PrunedLength int   // candidates dismissed by the q-gram length filter
	PrunedCount  int   // candidates dismissed by the q-gram count filter
	PrunedSig    int   // candidates dismissed by the batched signature prefilter
	DPCells      int64 // scalar DP cells evaluated during verification
	SigCacheHits int   // join probes served from the corpus signature cache

	BitvecOps       int64 // 64-cell word operations of the bit-parallel kernel
	ScalarFallbacks int   // verifications the requested kernel deferred to the scalar DP
	BatchesBuilt    int   // columnar candidate batches materialized
}

// Add accumulates another Stats into s (used to merge per-worker stats
// and to aggregate across queries).
func (s *Stats) Add(o Stats) {
	s.Rows += o.Rows
	s.Candidates += o.Candidates
	s.Matches += o.Matches
	s.PrunedLength += o.PrunedLength
	s.PrunedCount += o.PrunedCount
	s.PrunedSig += o.PrunedSig
	s.DPCells += o.DPCells
	s.SigCacheHits += o.SigCacheHits
	s.BitvecOps += o.BitvecOps
	s.ScalarFallbacks += o.ScalarFallbacks
	s.BatchesBuilt += o.BatchesBuilt
}

// Canon returns the kernel-independent view of the stats: the work
// counters that legitimately differ between the scalar and bit-parallel
// kernels (DP cells, word ops, fallback dispatches) are masked, and
// everything that must be byte-identical across every (kernel, workers)
// pair — row, prune, candidate and match accounting — is kept. The
// determinism tests and the bench audit compare Canon views across
// kernels and raw Stats across worker counts.
func (s Stats) Canon() Stats {
	s.DPCells = 0
	s.BitvecOps = 0
	s.ScalarFallbacks = 0
	return s
}

// Corpus is a queryable collection of multiscript texts with the
// auxiliary structures of §5 built once: the flat columnar batch of
// phoneme strings (cached transforms plus the per-row kernel and
// prefilter columns), the positional q-gram inverted index, and the
// grouped-phoneme-identifier hash. DefaultQ is used unless overridden.
type Corpus struct {
	op      *Operator
	q       int
	texts   []Text
	batch   Batch  // columnar phoneme rows + kernel/prefilter columns
	proj    Column // signature projections (see soundex.Encoder.Project)
	skipped []int  // rows whose language had no converter (NORESOURCE rows)
	encoder *soundex.Encoder

	// The probe indexes, built by index on first use: a naive scan or
	// join reads none of them, and they cost several times the batch.
	indexOnce sync.Once
	grams     map[string][]posting // q-gram inverted index
	grouped   map[soundex.GroupedID][]int
	// sigGrams caches each row's positional q-gram signature (key +
	// position over the projection), extracted once so join probes never
	// re-extract or re-render gram keys per pair.
	sigGrams [][]sigGram
}

type posting struct {
	row int
	pos int
}

// sigGram is one cached positional q-gram of a row's signature
// projection: the rendered key (as stored in the inverted index) and
// its 1-based position.
type sigGram struct {
	key string
	pos int
}

// DefaultQ is the gram length used by the paper's experiments.
const DefaultQ = 3

// NewCorpus transforms every text once and builds the q-gram and
// phonetic indexes. Rows in languages without a TTP converter are
// retained but never match (they are the NORESOURCE rows); their
// indices are reported by Skipped.
func (op *Operator) NewCorpus(texts []Text) (*Corpus, error) {
	return op.NewCorpusQ(texts, DefaultQ)
}

// NewCorpusQ is NewCorpus with an explicit q-gram length (q >= 2).
func (op *Operator) NewCorpusQ(texts []Text, q int) (*Corpus, error) {
	phons := make([]phoneme.String, len(texts))
	var skipped []int
	for i, t := range texts {
		if !op.registry.Has(t.Lang) {
			skipped = append(skipped, i)
			continue
		}
		p, err := op.Transform(t.Value, t.Lang)
		if err != nil {
			return nil, fmt.Errorf("core: row %d (%s): %w", i, t, err)
		}
		phons[i] = p
	}
	c, err := op.NewCorpusPhonemes(texts, phons, q)
	if err != nil {
		return nil, err
	}
	c.skipped = skipped
	// A corpus built here serves many queries: pay for the probe
	// indexes up front rather than in the first q-gram or indexed query.
	c.index()
	return c, nil
}

// NewCorpusPhonemes builds a corpus over phoneme strings transformed
// elsewhere (a table's stored pname column): texts supply each row's
// value and language, phons[i] its transcription. A zero-length row is
// kept but never matches. q is the q-gram length (q >= 2). The q-gram
// and phonetic indexes are built by the first strategy that probes
// them.
func (op *Operator) NewCorpusPhonemes(texts []Text, phons []phoneme.String, q int) (*Corpus, error) {
	if q < 2 {
		return nil, fmt.Errorf("core: q must be >= 2, got %d", q)
	}
	if len(phons) != len(texts) {
		return nil, fmt.Errorf("core: %d phoneme strings for %d texts", len(phons), len(texts))
	}
	c := &Corpus{op: op, q: q, texts: texts, encoder: op.encoder}
	// The columnar batch is materialized once per corpus with every
	// column the strategies can consume — transforms, weak counts, kernel
	// signatures (when the cost model bit-parallelizes), projected
	// lengths and Bloom signatures — so scans at any kernel setting share
	// the same read-only batch and the per-candidate hot path never makes
	// an interface call or allocates.
	kern, _ := editdist.NewBitvec(op.cost)
	c.batch.wk = make([]int32, len(texts))
	if kern != nil {
		c.batch.ksig = make([]uint64, len(texts))
	}
	c.batch.plen = make([]int32, len(texts))
	c.batch.gsig = make([]uint64, len(texts))
	for i, p := range phons {
		if len(p) == 0 {
			c.batch.phon.Append(nil)
			c.proj.Append(nil)
			continue
		}
		c.batch.phon.Append(p)
		c.batch.wk[i] = int32(editdist.WeakCount(p))
		if kern != nil {
			c.batch.ksig[i] = kern.CandSig(p)
		}
		// Q-grams are extracted over the signature projection of the
		// phoneme string (glottals dropped, phonemes folded to their
		// cluster representatives). Under the clustered cost model the
		// cheap edits — intra-cluster substitutions and glottal indels —
		// leave the projection untouched, and every edit that does
		// change it costs at least one full unit (GramFilter.Budget
		// prices the one exception), so an edit-cost budget of k admits
		// at most k projected-space unit edits: the exact premise of the
		// three q-gram filters.
		pr := c.encoder.Project(p)
		c.proj.Append(pr)
		c.batch.plen[i] = int32(len(pr))
		c.batch.gsig[i] = qgram.Signature(pr, q)
	}
	return c, nil
}

// index builds the probe indexes on first use; the strategies call it
// on the calling goroutine before their morsel pool starts, after which
// the indexes are read-only.
func (c *Corpus) index() {
	c.indexOnce.Do(func() {
		c.grams = make(map[string][]posting)
		c.grouped = make(map[soundex.GroupedID][]int)
		c.sigGrams = make([][]sigGram, len(c.texts))
		for i := range c.texts {
			p := c.batch.phon.View(i)
			if p == nil {
				continue
			}
			grams := qgram.Extract(c.proj.View(i), c.q)
			c.sigGrams[i] = make([]sigGram, len(grams))
			for gi, g := range grams {
				key := g.Key()
				c.grams[key] = append(c.grams[key], posting{row: i, pos: g.Pos})
				c.sigGrams[i][gi] = sigGram{key: key, pos: g.Pos}
			}
			c.grouped[c.encoder.Encode(p)] = append(c.grouped[c.encoder.Encode(p)], i)
		}
	})
}

// Len returns the number of rows.
func (c *Corpus) Len() int { return len(c.texts) }

// Text returns row i's text.
func (c *Corpus) Text(i int) Text { return c.texts[i] }

// Phonemes returns row i's phoneme string (nil for NORESOURCE rows).
// The view aliases the corpus batch buffer and must be treated as
// read-only.
func (c *Corpus) Phonemes(i int) phoneme.String { return c.batch.phon.View(i) }

// Batch exposes the corpus's columnar candidate batch (read-only).
func (c *Corpus) Batch() *Batch { return &c.batch }

// Skipped lists rows whose language had no TTP converter.
func (c *Corpus) Skipped() []int { return c.skipped }

// Q returns the corpus's q-gram length.
func (c *Corpus) Q() int { return c.q }

// Select finds the rows matching query at the threshold, restricted to
// langs, using the given strategy. All strategies return identical
// results except Indexed, which may have false dismissals (§5.3).
// Options (Parallel) tune execution without changing results: the
// candidate range is split into morsels consumed by a worker pool with
// per-worker scratch and stats, merged in morsel order.
func (c *Corpus) Select(query Text, threshold float64, langs LangSet, strat Strategy, opts ...ExecOption) ([]int, Stats, error) {
	if threshold < 0 {
		threshold = c.op.threshold
	}
	if threshold > 1 {
		return nil, Stats{}, fmt.Errorf("core: match threshold %v outside [0,1]", threshold)
	}
	qp, err := c.op.Transform(query.Value, query.Lang)
	if err != nil {
		return nil, Stats{}, err
	}
	// The strategies differ only in their candidate source and filter
	// chain; all end in the shared filter+verify stage.
	n := len(c.texts)
	row := func(i int) int { return c.keep(i, langs) }
	var chk Check
	switch strat {
	case Naive:
		// Every row, behind the batched signature prefilter (a couple of
		// word operations against precomputed batch columns) — the naive
		// plan's Candidates undercount Rows by exactly PrunedSig.
		sf := c.op.NewSigFilter(qp, threshold, c.q)
		chk.Sig = &sf
	case QGram:
		chk.Pre = c.gramCheck(qp, threshold)
	case Indexed:
		// The Figure 15 plan: the rows sharing the query's grouped
		// phoneme identifier. Fast, with false dismissals for matches
		// whose edits cross cluster boundaries.
		c.index()
		group := c.grouped[c.encoder.Encode(qp)]
		n = len(group)
		row = func(i int) int { return c.keep(group[i], langs) }
	default:
		return nil, Stats{}, fmt.Errorf("core: unknown strategy %v", strat)
	}
	out, st := c.op.VerifyStage(qp, threshold, &c.batch, n, row, chk, opts...)
	return out, st, nil
}

// keep maps corpus row r to itself when it can take part in a
// selection (non-empty, language in langs) and to -1 otherwise.
func (c *Corpus) keep(r int, langs LangSet) int {
	if c.batch.phon.RowLen(r) == 0 || !langs.Contains(c.texts[r].Lang) {
		return -1
	}
	return r
}

// gramCheck is the Figure 14 filter chain for a selection: the inverted
// index supplies gram match counts, position-filtered at each row's
// pair budget (GramFilter.Budget), and the pre-check applies the length
// and count filters. The probe runs once, here; the returned check only
// reads counts, so the morsel pool may share it.
func (c *Corpus) gramCheck(qp phoneme.String, e float64) func(i int, st *Stats) bool {
	c.index()
	gf := c.op.NewGramFilter(qp, e, c.q)
	kRow := func(i int) float64 { return gf.Budget(int(c.batch.wk[i])) }
	counts := make(map[int]int)
	for _, g := range gf.Grams() {
		for _, p := range c.grams[g.Key()] {
			if qgram.PositionOK(g.Pos, p.pos, kRow(p.row)) {
				counts[p.row]++
			}
		}
	}
	return func(i int, st *Stats) bool { return gf.Admit(c.proj.RowLen(i), kRow(i), counts[i], st) }
}

// pairable reports whether a join considers row r for a probe row in
// language lang: r is non-empty and, when diffLang, of another language.
func (c *Corpus) pairable(r int, diffLang bool, lang script.Language) bool {
	return c.batch.phon.RowLen(r) > 0 && !(diffLang && c.texts[r].Lang == lang)
}

// Pair is one result of a join: row indexes into the left and right
// corpora.
type Pair struct {
	Left, Right int
}

// Join finds all cross-corpus pairs matching at the threshold under the
// strategy, optionally requiring different languages (the paper's
// equi-join example restricts B1.Language <> B2.Language). The probe
// loop over left rows is split into morsels; per-worker scratch and
// stats plus the final normalizing sort make the output and Stats
// byte-identical to the serial path at any worker count.
func Join(left, right *Corpus, threshold float64, requireDifferentLang bool, strat Strategy, opts ...ExecOption) ([]Pair, Stats, error) {
	if threshold < 0 {
		threshold = left.op.threshold
	}
	if threshold > 1 {
		return nil, Stats{}, fmt.Errorf("core: match threshold %v outside [0,1]", threshold)
	}
	o := resolveOpts(opts)
	// The verification always runs under the left operator's cost model,
	// but the right batch's kernel signatures were built under the
	// right's: when the models differ the bit-parallel path would read
	// masks from the wrong model, so cross-model joins run scalar.
	// (Clustered and Unit are comparable values, so interface equality
	// compares model parameters.)
	kern := o.kernel
	if !left.op.CostEqual(right.op) {
		kern = KernelScalar
	}
	// Every shape walks the left rows on the morsel pool with a
	// lane-private matcher re-prepared per probe row; probeRow appends
	// the matching pairs of left row l. A pair is considered (counted)
	// only when the right row is non-empty and, if requested, of another
	// language.
	var probeRow func(ln *Lane, pm *BatchMatcher, l int, lp phoneme.String, out []Pair) []Pair
	verify := func(ln *Lane, pm *BatchMatcher, chk Check, l, r int, out []Pair) []Pair {
		if right.pairable(r, requireDifferentLang, left.texts[l].Lang) && chk.verify(pm, &right.batch, r, ln) {
			out = append(out, Pair{Left: l, Right: r})
		}
		return out
	}
	switch strat {
	case Naive:
		// The batched signature prefilter needs the probe projection and
		// the right batch's signature columns to come from one encoder
		// and cost model; a shared operator guarantees both.
		useSig := left.op == right.op
		probeRow = func(ln *Lane, pm *BatchMatcher, l int, lp phoneme.String, out []Pair) []Pair {
			var chk Check
			if useSig {
				sf := left.op.NewSigFilter(lp, threshold, right.q)
				chk.Sig = &sf
			}
			// The hot loop of every naive join, so verify is inlined.
			lang := left.texts[l].Lang
			for r := range right.texts {
				if right.pairable(r, requireDifferentLang, lang) && chk.verify(pm, &right.batch, r, ln) {
					out = append(out, Pair{Left: l, Right: r})
				}
			}
			return out
		}
	case QGram:
		// Probe-side signatures come from the corpus cache when the gram
		// lengths agree (always, for a self-join), so no per-probe gram
		// extraction or key rendering happens on the hot path.
		cached := left.q == right.q
		left.index()
		right.index()
		// Right rows ordered by weak count (descending): the zero-gram
		// sweep below visits rows in this order and stops as soon as the
		// count filter regains power, so glottal-free corpora pay nothing.
		sweepOrder := make([]int, len(right.texts))
		for r := range sweepOrder {
			sweepOrder[r] = r
		}
		sort.Slice(sweepOrder, func(a, b int) bool {
			wa, wb := right.batch.wk[sweepOrder[a]], right.batch.wk[sweepOrder[b]]
			if wa != wb {
				return wa > wb
			}
			return sweepOrder[a] < sweepOrder[b]
		})
		probeRow = func(ln *Lane, pm *BatchMatcher, l int, lp phoneme.String, out []Pair) []Pair {
			// Budgets are per pair under the LEFT operator's cost model —
			// the model the verification runs under.
			gf := left.op.NewGramFilter(lp, threshold, right.q)
			kPair := func(r int) float64 { return gf.Budget(int(right.batch.wk[r])) }
			counts := make(map[int]int)
			tally := func(key string, pos int) {
				for _, p := range right.grams[key] {
					if qgram.PositionOK(pos, p.pos, kPair(p.row)) {
						counts[p.row]++
					}
				}
			}
			if cached {
				ln.Stats.SigCacheHits++
				for _, g := range left.sigGrams[l] {
					tally(g.key, g.pos)
				}
			} else {
				for _, g := range gf.Grams() {
					tally(g.Key(), g.Pos)
				}
			}
			chk := Check{Pre: func(r int, st *Stats) bool {
				return gf.Admit(right.proj.RowLen(r), kPair(r), counts[r], st)
			}}
			for r := range counts {
				out = verify(ln, pm, chk, l, r, out)
			}
			// Rows sharing no position-compatible gram can still be true
			// matches when the count filter has no power for the pair:
			// sweep them in descending weak order, stopping once it
			// regains power.
			if gf.MinShared() <= 0 {
				for _, r := range sweepOrder {
					if !gf.ZeroGramOK(int(right.batch.wk[r])) {
						break
					}
					if _, seen := counts[r]; !seen {
						out = verify(ln, pm, chk, l, r, out)
					}
				}
			}
			return out
		}
	case Indexed:
		right.index()
		probeRow = func(ln *Lane, pm *BatchMatcher, l int, lp phoneme.String, out []Pair) []Pair {
			for _, r := range right.grouped[right.encoder.Encode(lp)] {
				out = verify(ln, pm, Check{}, l, r, out)
			}
			return out
		}
	default:
		return nil, Stats{}, fmt.Errorf("core: unknown strategy %v", strat)
	}
	out, st := runStage(len(left.texts), o.workers, func(ln *Lane, lo, hi int) []Pair {
		pm := left.op.NewLaneMatcher(ln, kern)
		var out []Pair
		for l := lo; l < hi; l++ {
			if lp := left.batch.phon.View(l); lp != nil {
				pm.SetPattern(lp, threshold)
				out = probeRow(ln, pm, l, lp, out)
			}
		}
		return out
	})
	// The q-gram strategy discovers candidates in hash order; normalize
	// so all strategies return deterministically ordered results.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out, st, nil
}

// SelfJoin runs Join of a corpus with itself, returning each unordered
// pair once (Left < Right).
func SelfJoin(c *Corpus, threshold float64, requireDifferentLang bool, strat Strategy, opts ...ExecOption) ([]Pair, Stats, error) {
	pairs, st, err := Join(c, c, threshold, requireDifferentLang, strat, opts...)
	if err != nil {
		return nil, st, err
	}
	out := pairs[:0]
	for _, p := range pairs {
		if p.Left < p.Right {
			out = append(out, p)
		}
	}
	st.Matches = len(out)
	return out, st, nil
}
