package core

import (
	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
)

// Column is a flat columnar vector of phoneme strings: one contiguous
// buffer plus a (rows+1)-entry offsets array, so row i occupies
// buf[offs[i]:offs[i+1]]. Views alias the shared buffer (read-only by
// contract) and a zero-length row views as nil, mirroring the
// row-at-a-time representation where absent transforms are nil strings.
type Column struct {
	buf  []phoneme.Phoneme
	offs []int32
}

// Append adds one row. Appending invalidates previously taken views
// (the buffer may move), so builders append everything first and view
// after.
func (c *Column) Append(s phoneme.String) {
	if len(c.offs) == 0 {
		c.offs = append(c.offs, 0)
	}
	c.buf = append(c.buf, s...)
	c.offs = append(c.offs, int32(len(c.buf)))
}

// Len returns the number of rows.
func (c *Column) Len() int {
	if len(c.offs) == 0 {
		return 0
	}
	return len(c.offs) - 1
}

// View returns row i without copying; nil for a zero-length row. The
// three-index slice caps the view so even an appending caller could not
// scribble past a row's end into its neighbor.
func (c *Column) View(i int) phoneme.String {
	lo, hi := c.offs[i], c.offs[i+1]
	if lo == hi {
		return nil
	}
	return phoneme.String(c.buf[lo:hi:hi])
}

// RowLen returns row i's length without materializing a view.
func (c *Column) RowLen(i int) int { return int(c.offs[i+1] - c.offs[i]) }

// Batch is the flat columnar form of a candidate set: the phoneme rows
// in one contiguous buffer plus the per-row scalars the bit-parallel
// kernel (weak counts, kernel signatures) and the batched q-gram
// signature prefilter (projected lengths, Bloom signatures) consume,
// all built once per scan so the per-pair hot path does no interface
// calls and no per-row allocation.
type Batch struct {
	phon Column
	wk   []int32  // per-row weak (glottal) phoneme counts
	ksig []uint64 // kernel candidate signatures (nil = kernel off)
	plen []int32  // projected lengths (nil = sig prefilter off)
	gsig []uint64 // q-gram Bloom signatures over the projection
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.phon.Len() }

// View returns row i's phoneme string (nil for zero-length rows).
func (b *Batch) View(i int) phoneme.String { return b.phon.View(i) }

// Weak returns row i's weak (glottal) phoneme count.
func (b *Batch) Weak(i int) int { return int(b.wk[i]) }

// ProjLen returns row i's signature-projection length; valid only when
// the batch was built with the prefilter columns (sigQ > 0).
func (b *Batch) ProjLen(i int) int { return int(b.plen[i]) }

// BuildBatch materializes rows into a flat columnar batch. The kernel
// signature column is built when k requests the bit-parallel kernel and
// the operator's cost model compiles; sigQ > 0 additionally builds the
// signature-prefilter columns (projected lengths and q-gram Bloom
// signatures at gram length sigQ). Rows may be nil (NORESOURCE or
// empty); they round-trip as nil views.
func (op *Operator) BuildBatch(rows []phoneme.String, k Kernel, sigQ int) *Batch {
	b := &Batch{wk: make([]int32, len(rows))}
	total := 0
	for _, p := range rows {
		total += len(p)
	}
	b.phon.buf = make([]phoneme.Phoneme, 0, total)
	b.phon.offs = make([]int32, 0, len(rows)+1)
	kern := op.compileKernel(k)
	if kern != nil {
		b.ksig = make([]uint64, len(rows))
	}
	if sigQ > 0 {
		b.plen = make([]int32, len(rows))
		b.gsig = make([]uint64, len(rows))
	}
	for i, p := range rows {
		b.phon.Append(p)
		b.wk[i] = int32(editdist.WeakCount(p))
		if kern != nil {
			b.ksig[i] = kern.CandSig(p)
		}
		if sigQ > 0 {
			pr := op.encoder.Project(p)
			b.plen[i] = int32(len(pr))
			b.gsig[i] = qgram.Signature(pr, sigQ)
		}
	}
	return b
}
