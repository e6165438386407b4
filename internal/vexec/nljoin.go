// Vectorized nested-loop join: the join for conditions without
// extractable equi-keys (cross joins, theta joins, and the cross-shaped
// outer joins the provenance rewriter emits for sublink provenance), in
// every flavour: inner, left, right and full.
// The right side is materialized into columns once; probe batches then
// pair with it in batch-sized chunks assembled by gather, so no boxed
// row is ever built — on provenance-rewritten queries whose output is a
// wide cross product this replaces one row allocation per pair with
// columnar copies.
package vexec

import (
	"perm/internal/obs"
	"perm/internal/types"
	"perm/internal/vector"
)

// NLJoin is a vectorized nested-loop join. Cond, when non-nil, is
// evaluated over the concatenated pair batch and participates in the
// match decision, so outer joins with arbitrary conditions are
// supported. Right and full joins track a matched bit per right row and
// emit the unmatched right rows, in input order, after the left side is
// exhausted.
type NLJoin struct {
	obs.Card
	Left, Right Node
	Cond        *Expr // nil = cross join
	Type        JoinType
	LeftKinds   []types.Kind
	RightKinds  []types.Kind

	build colAccumulator

	curBatch *vector.Batch
	lanes    []int // live lanes of curBatch
	li, ri   int   // pair cursor into lanes × build rows
	matched  []bool
	flushed  bool // null-extension for curBatch emitted

	rmatched []bool  // right/full joins: right rows that found a partner
	tail     []int32 // right/full joins: unmatched right rows still to emit
	tailDone bool

	pairL, pairR []int32
	selBuf       []int
	emitOwned    []*vector.Vec
	emitBuf      []*vector.Vec
	aq           *obs.ActiveQuery
}

// NewNLJoin returns a vectorized nested-loop join node.
func NewNLJoin(left, right Node, cond *Expr, jt JoinType, leftKinds, rightKinds []types.Kind) *NLJoin {
	return &NLJoin{Left: left, Right: right, Cond: cond, Type: jt, LeftKinds: leftKinds, RightKinds: rightKinds}
}

func (j *NLJoin) Open() error {
	j.build = colAccumulator{}
	if err := j.Right.Open(); err != nil {
		return err
	}
	for {
		b, err := j.Right.Next()
		if err != nil {
			j.Right.Close() //nolint:errcheck — unwinding after a failed build
			return err
		}
		if b == nil {
			break
		}
		j.build.appendLanes(b, resolveSel(b, b.Sel))
	}
	if err := j.Right.Close(); err != nil {
		return err
	}
	// An empty build side still needs typed columns for gather/null
	// extension.
	if j.build.cols == nil {
		j.build.cols = make([]*vector.Vec, len(j.RightKinds))
		for i, k := range j.RightKinds {
			j.build.cols[i] = vector.NewVec(k, 0)
		}
	}
	j.curBatch = nil
	j.flushed = true
	j.tail, j.tailDone = j.tail[:0], false
	j.rmatched = nil
	if j.Type.preservesRight() {
		j.rmatched = make([]bool, j.build.n)
	}
	return j.Left.Open()
}

// SetActivity attaches the active-query registration so cooperative
// cancellation is observed once per emitted batch: a cross join emits
// millions of batches per probe-scan pull, so polling at the scans alone
// would leave cancellation latency unbounded.
func (j *NLJoin) SetActivity(aq *obs.ActiveQuery) { j.aq = aq }

func (j *NLJoin) Next() (*vector.Batch, error) {
	if err := j.aq.CancelErr(); err != nil {
		return nil, err
	}
	for {
		if j.tailDone {
			return j.tailChunk(), nil
		}
		if j.curBatch != nil {
			b, err := j.pairChunk()
			if err != nil {
				return nil, err
			}
			if b != nil {
				return b, nil
			}
		}
		b, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if !j.Type.preservesRight() {
				return nil, nil
			}
			j.tailDone = true
			for r, m := range j.rmatched {
				if !m {
					j.tail = append(j.tail, int32(r))
				}
			}
			j.curBatch = emptyBatch(j.LeftKinds)
			continue
		}
		j.curBatch = b
		j.lanes = resolveSel(b, b.Sel)
		j.li, j.ri = 0, 0
		j.flushed = false
		if j.Type.preservesLeft() {
			if cap(j.matched) < len(j.lanes) {
				j.matched = make([]bool, len(j.lanes))
			} else {
				j.matched = j.matched[:len(j.lanes)]
				for i := range j.matched {
					j.matched[i] = false
				}
			}
		}
	}
}

// pairChunk assembles and emits the next batch of surviving pairs from
// the current probe batch, or the null-extended unmatched lanes once all
// pairs are exhausted (left/full join). Returns nil when the probe batch is
// fully consumed.
func (j *NLJoin) pairChunk() (*vector.Batch, error) {
	n := j.build.n
	for j.li < len(j.lanes) {
		// Collect up to BatchSize candidate pairs.
		j.pairL, j.pairR = j.pairL[:0], j.pairR[:0]
		for j.li < len(j.lanes) && len(j.pairL) < vector.BatchSize {
			if n == 0 {
				j.li = len(j.lanes)
				break
			}
			j.pairL = append(j.pairL, int32(j.lanes[j.li]))
			j.pairR = append(j.pairR, int32(j.ri))
			j.ri++
			if j.ri >= n {
				j.ri = 0
				j.li++
			}
		}
		if len(j.pairL) == 0 {
			break
		}
		out := j.gatherPairs(j.pairL, j.pairR)
		if j.Cond != nil {
			pv, err := j.Cond.fn(out, nil)
			if err != nil {
				return nil, err
			}
			if j.selBuf == nil {
				j.selBuf = make([]int, 0, vector.BatchSize)
			}
			sel := j.selBuf[:0]
			for i := 0; i < out.N; i++ {
				if !pv.Nulls.Get(i) && pv.B[i] {
					sel = append(sel, i)
				}
			}
			j.Cond.FreeResult(pv)
			j.selBuf = sel
			if j.Type != InnerJoin {
				for _, i := range sel {
					j.markMatched(j.pairL[i], j.pairR[i])
				}
			}
			if len(sel) == 0 {
				continue
			}
			if len(sel) < out.N {
				out.Sel = sel
			}
			return out, nil
		}
		if j.Type != InnerJoin {
			for i := range j.pairL {
				j.markMatched(j.pairL[i], j.pairR[i])
			}
		}
		return out, nil
	}
	// Pairs exhausted: emit null-extended unmatched lanes (left/full join).
	if j.Type.preservesLeft() && !j.flushed {
		j.flushed = true
		j.pairL = j.pairL[:0]
		for idx, lane := range j.lanes {
			if !j.matched[idx] {
				j.pairL = append(j.pairL, int32(lane))
			}
		}
		if len(j.pairL) > 0 {
			j.pairR = j.pairR[:0]
			for range j.pairL {
				j.pairR = append(j.pairR, -1)
			}
			out := j.gatherPairs(j.pairL, j.pairR)
			j.curBatch = nil
			return out, nil
		}
	}
	j.curBatch = nil
	return nil, nil
}

// tailChunk emits the next chunk of unmatched right rows, each paired
// with a NULL left side, or nil when none are left.
func (j *NLJoin) tailChunk() *vector.Batch {
	if len(j.tail) == 0 {
		return nil
	}
	n := min(len(j.tail), vector.BatchSize)
	j.pairL = j.pairL[:0]
	for i := 0; i < n; i++ {
		j.pairL = append(j.pairL, -1)
	}
	out := j.gatherPairs(j.pairL, j.tail[:n])
	j.tail = j.tail[n:]
	return out
}

// markMatched records that probe lane `lane` and right row r produced a
// pair. Lanes are in increasing order in j.lanes; a linear scan from the
// current cursor would be O(1), but chunk boundaries make binary search
// simpler.
func (j *NLJoin) markMatched(lane, r int32) {
	if j.rmatched != nil {
		j.rmatched[r] = true
	}
	if !j.Type.preservesLeft() {
		return
	}
	lo, hi := 0, len(j.lanes)
	for lo < hi {
		mid := (lo + hi) / 2
		if int32(j.lanes[mid]) < lane {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(j.lanes) && int32(j.lanes[lo]) == lane {
		j.matched[lo] = true
	}
}

// gatherPairs materializes a pair chunk into an output batch, recycling
// the previous chunk's buffers. A build index of -1 produces NULLs
// (null extension).
func (j *NLJoin) gatherPairs(pairL, pairR []int32) *vector.Batch {
	for _, v := range j.emitOwned {
		v.Free()
	}
	j.emitOwned = j.emitOwned[:0]
	if j.emitBuf == nil {
		j.emitBuf = make([]*vector.Vec, len(j.LeftKinds)+len(j.RightKinds))
	}
	cols := j.emitBuf
	for c, k := range j.LeftKinds {
		cols[c] = vector.GatherBatch(j.curBatch.Cols[c], pairL, k)
	}
	off := len(j.LeftKinds)
	for c, k := range j.RightKinds {
		cols[off+c] = vector.GatherBatch(j.build.cols[c], pairR, k)
	}
	j.emitOwned = append(j.emitOwned, cols...)
	return &vector.Batch{N: len(pairL), Cols: cols}
}

func (j *NLJoin) Close() error {
	err := j.Left.Close()
	for _, v := range j.emitOwned {
		v.Free()
	}
	j.emitOwned = j.emitOwned[:0]
	j.build = colAccumulator{}
	j.curBatch = nil
	return err
}
