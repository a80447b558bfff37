package core

import (
	"math"

	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
)

// This file holds the two stages every §5 plan shares, whatever its
// candidate source (a corpus, a heap scan, a gram or group index
// probe): the q-gram filter chain of Figure 14 and the filter+verify
// stage that ends every plan.

// GramFilter is the q-gram filter chain for one probe string: the
// per-pair projected-edit budget, the length and count filters, and the
// decision whether candidates sharing no gram with the probe must still
// be swept. Filters work in signature-projection space (see
// Operator.NewCorpusPhonemes), so lengths are projected lengths.
type GramFilter struct {
	proj phoneme.String // the probe's signature projection
	base float64        // e·|probe|: the paper's budget in all three predicates
	weak int            // the probe's weak-phoneme count
	cap  float64        // candidate-independent budget ceiling
	q    int
}

// NewGramFilter prepares the filter chain for probe qp at gram length q.
func (op *Operator) NewGramFilter(qp phoneme.String, threshold float64, q int) GramFilter {
	base := threshold * float64(len(qp))
	return GramFilter{proj: op.encoder.Project(qp), base: base, weak: editdist.WeakCount(qp), cap: op.budgetCap(base), q: q}
}

// Grams returns the probe's positional q-grams over its projection.
func (f *GramFilter) Grams() []qgram.Gram { return qgram.Extract(f.proj, f.q) }

// Budget converts the probe's clustered-cost bound into a sound budget
// on projected-space unit edits for a candidate with wk weak phonemes.
// Most projection-changing edits cost at least one full unit (the cost
// model's discounted-indel set equals the projection's drop set), but
// the default cluster set places glottals in the same cluster as dorsal
// obstruents, so an ICSC substitution between a glottal and a strong
// clustermate changes the projection for less than a unit — the
// /ha/~/ka/ pair SigFilter's doc walks through. Each such edit consumes
// a distinct weak occurrence of one of the two strings, so bound + weak
// is sound (the same slack SigFilter applies); independently, Cap
// bounds the budget without reference to the candidate. The tighter of
// the two applies.
func (f *GramFilter) Budget(wk int) float64 {
	return math.Min(f.base+float64(f.weak+wk), f.cap)
}

// Cap is the budget ceiling over every candidate: probes use it where
// the candidate (and hence its weak count) is not yet in hand.
func (f *GramFilter) Cap() float64 { return f.cap }

// MinShared is the number of position-compatible grams (within Cap)
// every candidate must share with the probe. At most zero means the
// count filter has no power at the cap — very short probes, or weak
// slack swallowing the whole budget — so candidates sharing no gram can
// still match and a plan must sweep them.
func (f *GramFilter) MinShared() int {
	if math.IsInf(f.cap, 1) {
		return 0
	}
	// The length-0 candidate minimizes the threshold: it is
	// max(|probe|, |candidate|) − 1 − (k−1)·q.
	return qgram.CountThreshold(len(f.proj), 0, f.q, f.cap)
}

// ZeroGramOK reports whether a candidate with wk weak phonemes that
// shares no gram with the probe can pass the count filter at its pair
// budget. It is monotone in wk, so a sweep in descending weak order
// stops at the first false.
func (f *GramFilter) ZeroGramOK(wk int) bool {
	return qgram.CountThreshold(len(f.proj), 0, f.q, f.Budget(wk)) <= 0
}

// Admit applies the length and count filters to a candidate of
// projected length plen at pair budget k that shares `shared`
// position-compatible grams with the probe; a false return is a proven
// dismissal and bumps PrunedLength or PrunedCount.
func (f *GramFilter) Admit(plen int, k float64, shared int, st *Stats) bool {
	if !qgram.LengthOK(len(f.proj), plen, k) {
		st.PrunedLength++
		return false
	}
	if need := qgram.CountThreshold(len(f.proj), plen, f.q, k); need > 0 && shared < need {
		st.PrunedCount++
		return false
	}
	return true
}

// budgetCap is the candidate-independent ceiling on the projected-space
// edit budget: every edit that changes the signature projection costs
// at least the model's floor (cross-cluster substitutions and strong
// indels cost 1, glottal↔strong intra-cluster substitutions cost ICSC;
// discounted glottal indels never change the projection because the
// projection drops glottals), so a pair within clustered cost `bound`
// admits at most bound/floor projected unit edits. An ICSC of zero
// prices some projection-changing edits free, so no finite cap exists
// there.
func (op *Operator) budgetCap(bound float64) float64 {
	switch cm := op.cost.(type) {
	case editdist.Clustered:
		if cm.ICSC >= 1 {
			return bound
		}
		if cm.ICSC == 0 {
			return math.Inf(1)
		}
		if c := bound / cm.ICSC; c < 1e12 {
			return c
		}
		// An absurdly small ICSC yields a quotient with no filtering
		// power (and unsafe to truncate to int); treat it as unbounded.
		return math.Inf(1)
	default:
		// Unit charges 1 per projection-changing edit; other models keep
		// the historical bare bound (their floor is not analyzable here).
		return bound
	}
}

// Check is the per-candidate filter chain of the verify stage, run
// before any kernel work: an optional pre-check (the q-gram plans'
// GramFilter) and an optional batched signature prefilter (the naive
// plans, whose candidates saw no filter at fetch time).
type Check struct {
	Pre func(r int, st *Stats) bool
	Sig *SigFilter
}

// verify counts batch row r as a probed row, runs it through the chain
// and verifies a survivor against pm's pattern.
func (c Check) verify(pm *BatchMatcher, b *Batch, r int, ln *Lane) bool {
	ln.Stats.Rows++
	if c.Pre != nil && !c.Pre(r, &ln.Stats) {
		return false
	}
	if c.Sig != nil && !c.Sig.Admit(b, r, &ln.Stats) {
		return false
	}
	ln.Stats.Candidates++
	return pm.Match(b, r, ln)
}

// VerifyStage is the filter+verify stage every §5 selection ends in.
// Candidates 0..n-1 map to batch rows through row (nil is the identity;
// -1 drops a candidate uncounted — an empty or NORESOURCE row, a
// language outside INLANGUAGES), pass chk, and are verified against qp
// on the morsel pool. Batch row r's verification reads only b and
// whatever chk closes over, all shared read-only. It returns the
// matching batch rows in candidate order and the merged Stats; both are
// identical at any Parallel width, and under any kernel after
// Stats.Canon.
func (op *Operator) VerifyStage(qp phoneme.String, threshold float64, b *Batch, n int, row func(i int) int, chk Check, opts ...ExecOption) ([]int, Stats) {
	o := resolveOpts(opts)
	pm := op.NewBatchMatcher(qp, threshold, o.kernel)
	return runStage(n, o.workers, func(ln *Lane, lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			r := i
			if row != nil {
				if r = row(i); r < 0 {
					continue
				}
			}
			if chk.verify(pm, b, r, ln) {
				out = append(out, r)
			}
		}
		return out
	})
}
