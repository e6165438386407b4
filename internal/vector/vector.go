// Package vector defines the columnar data representation of the Perm
// engine's vectorized execution path (package vexec): typed column
// vectors with null bitmaps, and fixed-capacity row batches with
// selection vectors. Converting a heap of boxed types.Value rows into
// this layout once per snapshot lets the batch operators run tight,
// monomorphic loops over unboxed Go slices.
package vector

import (
	"sync"

	"perm/internal/types"
)

// BatchSize is the number of rows processed per operator invocation. It
// is a multiple of 64 so batch windows cut null bitmaps at word
// boundaries.
const BatchSize = 1024

// Bitmap is a bit-per-row mask (1 = set). Bit i of word i/64 is row i.
type Bitmap []uint64

// NewBitmap returns a zeroed bitmap covering n rows.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool {
	if len(b) == 0 {
		return false
	}
	return b[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// AnySet reports whether any of the first n bits is set.
func (b Bitmap) AnySet(n int) bool {
	full := n >> 6
	for w := 0; w < full; w++ {
		if b[w] != 0 {
			return true
		}
	}
	if rest := n & 63; rest > 0 && full < len(b) {
		if b[full]&(1<<uint(rest)-1) != 0 {
			return true
		}
	}
	return false
}

// Supported reports whether a column of kind k can be stored in a Vec:
// every kind the engine knows, including untyped NULL (an all-NULL
// vector) and interval.
func Supported(k types.Kind) bool {
	switch k {
	case types.KindBool, types.KindInt, types.KindFloat, types.KindString, types.KindDate,
		types.KindNull, types.KindInterval:
		return true
	default:
		return false
	}
}

// Vec is a typed column vector. Exactly one payload slice (selected by
// Kind) is populated; Nulls marks NULL rows (payload at null positions is
// unspecified). Date and interval values live in I exactly like
// types.Value (days since the epoch; months<<32|days). An untyped-NULL
// vector carries an I payload it never reads: every row is NULL.
type Vec struct {
	Kind  types.Kind
	Nulls Bitmap
	I     []int64
	F     []float64
	B     []bool
	S     []string

	// pooled marks a batch-sized vector obtained from the shared buffer
	// pool (NewBatchVec); Free returns such vectors for reuse and is a
	// no-op on everything else.
	pooled bool
}

// NewVec returns a vector of kind k with capacity for n rows, all
// initially non-NULL zero values.
func NewVec(k types.Kind, n int) *Vec {
	v := &Vec{Kind: k, Nulls: NewBitmap(n)}
	switch k {
	case types.KindBool:
		v.B = make([]bool, n)
	case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
		v.I = make([]int64, n)
	case types.KindFloat:
		v.F = make([]float64, n)
	case types.KindString:
		v.S = make([]string, n)
	}
	if k == types.KindNull {
		for w := range v.Nulls {
			v.Nulls[w] = ^uint64(0)
		}
	}
	return v
}

// ---------------------------------------------------------------------------
// Batch-buffer pool
//
// The vectorized operators allocate one result vector per expression per
// batch. Those vectors are short-lived — a kernel result is consumed by
// its parent within the same Next call, and an operator's output batch is
// abandoned by its consumer before the next Next call — so recycling them
// through a sync.Pool removes the dominant per-batch allocations from the
// hot path. Vectors whose lifetime is not batch-bounded (snapshot
// columns, windows, accumulators, constant caches) are allocated with
// NewVec and are never pooled.

// poolClass maps a kind to its payload pool (int, date and interval
// share I). All-NULL vectors are not pooled: a pooled vector starts
// non-NULL.
func poolClass(k types.Kind) int {
	switch k {
	case types.KindBool:
		return 0
	case types.KindInt, types.KindDate, types.KindInterval:
		return 1
	case types.KindFloat:
		return 2
	case types.KindString:
		return 3
	default:
		return -1
	}
}

var vecPools [4]sync.Pool

// NewBatchVec returns a vector of kind k with n rows (n ≤ BatchSize),
// all initially non-NULL, drawn from the shared buffer pool when
// possible. The caller owns the vector; pass it to Free when its batch
// is done, or leave it for the garbage collector (Free is optional).
func NewBatchVec(k types.Kind, n int) *Vec {
	cls := poolClass(k)
	if cls < 0 || n > BatchSize {
		return NewVec(k, n)
	}
	v, _ := vecPools[cls].Get().(*Vec)
	if v == nil {
		v = NewVec(k, BatchSize)
	}
	v.Kind = k // int and date share a pool
	for w := range v.Nulls {
		v.Nulls[w] = 0
	}
	switch cls {
	case 0:
		v.B = v.B[:n]
	case 1:
		v.I = v.I[:n]
	case 2:
		v.F = v.F[:n]
	case 3:
		v.S = v.S[:n]
	}
	v.pooled = true
	return v
}

// Free returns a pooled vector to the shared buffer pool. It is a no-op
// for vectors that did not come from NewBatchVec, so callers may pass any
// vector whose batch lifetime has ended without tracking provenance.
// String payloads are kept as-is (the next user overwrites its lanes);
// the retained string references die with normal pool churn.
func (v *Vec) Free() {
	if v == nil || !v.pooled {
		return
	}
	v.pooled = false
	cls := poolClass(v.Kind)
	switch cls {
	case 0:
		v.B = v.B[:cap(v.B)]
	case 1:
		v.I = v.I[:cap(v.I)]
	case 2:
		v.F = v.F[:cap(v.F)]
	case 3:
		v.S = v.S[:cap(v.S)]
	}
	vecPools[cls].Put(v)
}

// Unpool detaches the vector from the buffer pool (subsequent Free calls
// are no-ops). Operators call it when a pooled vector escapes into a
// structure that outlives its batch.
func (v *Vec) Unpool() { v.pooled = false }

// Len returns the number of rows in the vector.
func (v *Vec) Len() int {
	switch v.Kind {
	case types.KindBool:
		return len(v.B)
	case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
		return len(v.I)
	case types.KindFloat:
		return len(v.F)
	case types.KindString:
		return len(v.S)
	default:
		return len(v.Nulls) * 64
	}
}

// IsNull reports whether row i is NULL.
func (v *Vec) IsNull(i int) bool { return v.Nulls.Get(i) }

// SetNull marks row i NULL.
func (v *Vec) SetNull(i int) { v.Nulls.Set(i) }

// Set stores a types.Value at row i. The value must be NULL or of the
// vector's kind (numeric values are coerced across int/float).
func (v *Vec) Set(i int, val types.Value) {
	if val.Null {
		v.Nulls.Set(i)
		return
	}
	v.Nulls.Clear(i)
	switch v.Kind {
	case types.KindBool:
		v.B[i] = val.B
	case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
		if val.K == types.KindFloat {
			v.I[i] = int64(val.F)
		} else {
			v.I[i] = val.I
		}
	case types.KindFloat:
		v.F[i] = val.AsFloat()
	case types.KindString:
		v.S[i] = val.S
	}
}

// Value boxes row i back into a types.Value (the batch→row boundary).
func (v *Vec) Value(i int) types.Value {
	if v.Nulls.Get(i) {
		return types.NewNull(v.Kind)
	}
	switch v.Kind {
	case types.KindBool:
		return types.NewBool(v.B[i])
	case types.KindInt:
		return types.NewInt(v.I[i])
	case types.KindDate:
		return types.NewDate(v.I[i])
	case types.KindInterval:
		return types.Value{K: types.KindInterval, I: v.I[i]}
	case types.KindFloat:
		return types.NewFloat(v.F[i])
	case types.KindString:
		return types.NewString(v.S[i])
	default:
		return types.NewNull(v.Kind)
	}
}

// AppendFrom appends row i of src (which must have the same kind) to the
// end of the vector, growing it by one row. Use NewVec(kind, 0) to start
// an appendable vector.
func (v *Vec) AppendFrom(src *Vec, i int) {
	n := v.Len()
	switch v.Kind {
	case types.KindBool:
		v.B = append(v.B, src.B[i])
	case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
		v.I = append(v.I, src.I[i])
	case types.KindFloat:
		v.F = append(v.F, src.F[i])
	case types.KindString:
		v.S = append(v.S, src.S[i])
	}
	if n>>6 >= len(v.Nulls) {
		v.Nulls = append(v.Nulls, 0)
	}
	if src.Nulls.Get(i) {
		v.Nulls.Set(n)
	}
}

// AppendLanes appends the src rows listed in lanes to the end of the
// vector (kinds must match). It is the bulk form of AppendFrom used by
// materializing operators (sort, set ops, hash-join build) to compact
// live batch lanes into growable accumulator columns: the payload
// extends in one monomorphic loop and the null bitmap is only walked
// when the source window actually carries NULLs.
func (v *Vec) AppendLanes(src *Vec, lanes []int) {
	n := v.Len()
	switch v.Kind {
	case types.KindBool:
		for _, i := range lanes {
			v.B = append(v.B, src.B[i])
		}
	case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
		for _, i := range lanes {
			v.I = append(v.I, src.I[i])
		}
	case types.KindFloat:
		for _, i := range lanes {
			v.F = append(v.F, src.F[i])
		}
	case types.KindString:
		for _, i := range lanes {
			v.S = append(v.S, src.S[i])
		}
	}
	for need := (n + len(lanes) + 63) >> 6; len(v.Nulls) < need; {
		v.Nulls = append(v.Nulls, 0)
	}
	// AnySet masks bits beyond the window length, so shared trailing
	// words of a parent vector cannot defeat the null-free fast path.
	if src.Nulls.AnySet(src.Len()) {
		for o, i := range lanes {
			if src.Nulls.Get(i) {
				v.Nulls.Set(n + o)
			}
		}
	}
}

// CopyLanes copies the src rows listed in lanes into this vector
// starting at position at (which must leave room for len(lanes) rows).
// Kinds must match.
func (v *Vec) CopyLanes(at int, src *Vec, lanes []int) {
	switch v.Kind {
	case types.KindBool:
		for o, i := range lanes {
			v.B[at+o] = src.B[i]
		}
	case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
		for o, i := range lanes {
			v.I[at+o] = src.I[i]
		}
	case types.KindFloat:
		for o, i := range lanes {
			v.F[at+o] = src.F[i]
		}
	case types.KindString:
		for o, i := range lanes {
			v.S[at+o] = src.S[i]
		}
	}
	for o, i := range lanes {
		if src.Nulls.Get(i) {
			v.Nulls.Set(at + o)
		}
	}
}

// Gather copies the src rows at the given indices into a fresh vector
// of kind k (src's kind, or a compatible one for all-NULL gathers). A
// negative index produces a NULL row (outer-join null extension).
func Gather(src *Vec, idx []int32, k types.Kind) *Vec {
	return gatherInto(NewVec(k, len(idx)), src, idx, k)
}

// GatherBatch is Gather drawing its output from the batch-buffer pool
// (len(idx) ≤ BatchSize); the caller owns the result and may Free it
// once the emitted batch has been abandoned by its consumer.
func GatherBatch(src *Vec, idx []int32, k types.Kind) *Vec {
	return gatherInto(NewBatchVec(k, len(idx)), src, idx, k)
}

func gatherInto(out *Vec, src *Vec, idx []int32, k types.Kind) *Vec {
	for o, i := range idx {
		if i < 0 || src.Nulls.Get(int(i)) {
			out.Nulls.Set(o)
			continue
		}
		switch k {
		case types.KindBool:
			out.B[o] = src.B[i]
		case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
			out.I[o] = src.I[i]
		case types.KindFloat:
			out.F[o] = src.F[i]
		case types.KindString:
			out.S[o] = src.S[i]
		}
	}
	return out
}

// Window returns a view of rows [lo, hi) sharing the vector's backing
// arrays. lo must be a multiple of 64 so the null bitmap slices cleanly;
// batch windows at BatchSize boundaries always satisfy this.
func (v *Vec) Window(lo, hi int) *Vec {
	w := &Vec{}
	v.WindowInto(lo, hi, w)
	return w
}

// WindowInto points w (an existing, reusable Vec struct) at rows
// [lo, hi) of v, sharing the backing arrays. Scans use it to avoid one
// allocation per column per batch.
func (v *Vec) WindowInto(lo, hi int, w *Vec) {
	if lo&63 != 0 {
		panic("vector: window start must be a multiple of 64")
	}
	*w = Vec{Kind: v.Kind}
	wordLo := lo >> 6
	wordHi := (hi + 63) >> 6
	if wordHi > len(v.Nulls) {
		wordHi = len(v.Nulls)
	}
	if wordLo < wordHi {
		w.Nulls = v.Nulls[wordLo:wordHi]
	}
	switch v.Kind {
	case types.KindBool:
		w.B = v.B[lo:hi]
	case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
		w.I = v.I[lo:hi]
	case types.KindFloat:
		w.F = v.F[lo:hi]
	case types.KindString:
		w.S = v.S[lo:hi]
	}
}

// FromRows pivots rows into column vectors of the given kinds. It
// returns ok=false when some non-NULL value does not fit its declared
// column kind (the caller reports the mismatch).
func FromRows(rows []types.Row, kinds []types.Kind) (cols []*Vec, ok bool) {
	cols = make([]*Vec, len(kinds))
	for j, k := range kinds {
		if !Supported(k) {
			return nil, false
		}
		cols[j] = NewVec(k, len(rows))
	}
	for i, r := range rows {
		if len(r) != len(kinds) {
			return nil, false
		}
		for j, val := range r {
			if !val.Null && !kindFits(val.K, kinds[j]) {
				return nil, false
			}
			cols[j].Set(i, val)
		}
	}
	return cols, true
}

// kindFits reports whether a value of kind k can be stored losslessly in
// a column declared as kind col.
func kindFits(k, col types.Kind) bool {
	if k == col {
		return true
	}
	return k == types.KindInt && col == types.KindFloat
}

// Batch is a horizontal slice of rows in columnar form. Sel, when
// non-nil, lists the live row positions in increasing order (a selection
// vector); nil means all N rows are live.
type Batch struct {
	N    int
	Cols []*Vec
	Sel  []int
}

// Live returns the number of live rows.
func (b *Batch) Live() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Row boxes physical row i into a types.Row.
func (b *Batch) Row(i int) types.Row {
	r := make(types.Row, len(b.Cols))
	for j, c := range b.Cols {
		r[j] = c.Value(i)
	}
	return r
}
