// Package refmatch is the benchmark's independent LexEQUAL matcher.
//
// It decides a pair the slow, obvious way: transform both texts with
// the operator's TTP converter, fill the whole (|a|+1)×(|b|+1) edit
// distance matrix with the operator's cost model, and compare the
// corner cell with threshold × min(|a|, |b|). It has no band, no
// early exit, no bit vectors, no q-gram or signature filter and never
// reads a stored phonemic string, so it shares no code path with the
// matcher under test beyond the cost model's Ins, Del and Sub.
package refmatch

import (
	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
)

// Matcher fills the matrix in a buffer it reuses, with the cost model's
// answers for every phoneme and phoneme pair asked once up front. One
// Matcher must not be shared between goroutines.
type Matcher struct {
	m        []float64
	insB     []float64
	n        int
	ins, del []float64 // by phoneme
	sub      []float64 // by a*n+b
}

// New returns a Matcher over cm.
func New(cm editdist.CostModel) *Matcher {
	n := phoneme.Count() + 1
	r := &Matcher{n: n, ins: make([]float64, n), del: make([]float64, n), sub: make([]float64, n*n)}
	for a := 0; a < n; a++ {
		pa := phoneme.Phoneme(a)
		r.ins[a], r.del[a] = cm.Ins(pa), cm.Del(pa)
		for b := 0; b < n; b++ {
			r.sub[a*n+b] = cm.Sub(pa, phoneme.Phoneme(b))
		}
	}
	return r
}

// Distance is the full-matrix edit distance between a and b.
func (r *Matcher) Distance(a, b phoneme.String) float64 {
	cols := len(b) + 1
	if n := (len(a) + 1) * cols; cap(r.m) < n {
		r.m = make([]float64, n)
	}
	if cap(r.insB) < len(b) {
		r.insB = make([]float64, len(b))
	}
	insB := r.insB[:len(b)]
	for j, p := range b {
		insB[j] = r.ins[p]
	}
	m := r.m[:(len(a)+1)*cols]
	m[0] = 0
	for j := 1; j <= len(b); j++ {
		m[j] = m[j-1] + insB[j-1]
	}
	for i := 1; i <= len(a); i++ {
		row, prev := m[i*cols:(i+1)*cols], m[(i-1)*cols:i*cols]
		del := r.del[a[i-1]]
		sub := r.sub[int(a[i-1])*r.n : (int(a[i-1])+1)*r.n]
		row[0] = prev[0] + del
		for j := 1; j < len(row); j++ {
			best := prev[j-1] + sub[b[j-1]]
			if d := prev[j] + del; d < best {
				best = d
			}
			if d := row[j-1] + insB[j-1]; d < best {
				best = d
			}
			row[j] = best
		}
	}
	return m[len(a)*cols+len(b)]
}

// Match reports whether a and b match within threshold.
func (r *Matcher) Match(a, b phoneme.String, threshold float64) bool {
	return r.Distance(a, b) <= Bound(a, b, threshold)
}

// Bound is the largest distance at which a and b still match.
func Bound(a, b phoneme.String, threshold float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return threshold * float64(n)
}
