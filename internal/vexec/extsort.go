// External-sort machinery for the vectorized engine: budget-driven run
// spilling and the k-way streaming merge that reads sorted runs back.
// VecSort switches to this path when its memory reservation denies a
// grant; the merge preserves the in-memory sort's exact output order
// (stable, NULLS LAST ascending) because runs hold consecutive input
// segments and ties always resolve to the earlier run.
package vexec

import (
	"sort"

	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// mergeFanIn caps how many runs a single merge pass reads. More runs
// than this trigger intermediate merge passes (a genuinely multi-pass
// external sort) so the merge's memory stays bounded no matter how
// small the budget was.
const mergeFanIn = 8

// batchBytes estimates the heap footprint of the given live lanes of a
// batch once copied into accumulator columns. Fixed-width lanes cost
// their payload width, strings their header plus bytes; the null bitmaps
// add a per-column word share.
func batchBytes(cols []*vector.Vec, lanes []int) int64 {
	var n int64
	for _, c := range cols {
		switch c.Kind {
		case types.KindBool:
			n += int64(len(lanes))
		case types.KindString:
			n += int64(len(lanes)) * 16
			for _, i := range lanes {
				n += int64(len(c.S[i]))
			}
		default:
			n += int64(len(lanes)) * 8
		}
	}
	n += int64(len(cols)) * int64(len(lanes)) / 8
	return n
}

// colKinds returns the kinds of a batch's columns.
func colKinds(cols []*vector.Vec) []types.Kind {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.Kind
	}
	return kinds
}

// sortedOrder computes the stable sort permutation of n accumulated rows
// under the sort keys (the in-memory VecSort comparator, shared with the
// run writer).
func sortedOrder(cols []*vector.Vec, n int, keys []SortKey, classes []cmpClass) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if n == 0 {
		return order
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := int(order[x]), int(order[y])
		for k, key := range keys {
			col := cols[key.Pos]
			c := compareSortLanes(classes[k], col, i, col, j)
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return order
}

// writeOrdered writes the accumulated rows to a fresh run in the given
// permutation order, in batch-sized chunks.
func writeOrdered(res spill.Resources, cols []*vector.Vec, order []int32) (*spill.Run, error) {
	run, err := spill.NewRun(res.Dir)
	if err != nil {
		return nil, err
	}
	chunk := make([]*vector.Vec, len(cols))
	for lo := 0; lo < len(order); lo += vector.BatchSize {
		hi := lo + vector.BatchSize
		if hi > len(order) {
			hi = len(order)
		}
		for c, col := range cols {
			chunk[c] = vector.Gather(col, order[lo:hi], col.Kind)
		}
		if err := run.WriteCols(chunk, hi-lo); err != nil {
			run.Close() //nolint:errcheck — unwinding after a failed write
			return nil, err
		}
	}
	if err := run.Finish(); err != nil {
		run.Close() //nolint:errcheck
		return nil, err
	}
	res.Res.NoteSpill(run.Bytes())
	return run, nil
}

// runCursor walks one sorted run batch-at-a-time during a merge.
type runCursor struct {
	run  *spill.Run
	cols []*vector.Vec
	n    int
	pos  int
}

func (c *runCursor) load() (bool, error) {
	cols, n, err := c.run.ReadCols()
	if err != nil {
		return false, err
	}
	if n == 0 {
		c.cols, c.n, c.pos = nil, 0, 0
		return false, nil
	}
	c.cols, c.n, c.pos = cols, n, 0
	return true, nil
}

// advance moves to the next row, loading the next batch as needed; it
// returns false when the run is exhausted.
func (c *runCursor) advance() (bool, error) {
	c.pos++
	if c.pos < c.n {
		return true, nil
	}
	return c.load()
}

// runMerger is a k-way streaming merge over sorted runs. Ties between
// runs resolve to the lower run index: runs hold consecutive input
// segments, so this reproduces the stable in-memory order exactly.
type runMerger struct {
	cursors []*runCursor
	keys    []SortKey
	classes []cmpClass
	kinds   []types.Kind
	heap    []int // heap of cursor indices, least row on top
}

func newRunMerger(runs []*spill.Run, keys []SortKey, classes []cmpClass, kinds []types.Kind) (*runMerger, error) {
	m := &runMerger{keys: keys, classes: classes, kinds: kinds}
	for _, r := range runs {
		cur := &runCursor{run: r}
		ok, err := cur.load()
		if err != nil {
			return nil, err
		}
		m.cursors = append(m.cursors, cur)
		if ok {
			m.heap = append(m.heap, len(m.cursors)-1)
		}
	}
	spill.Heapify(m.heap, m.less)
	return m, nil
}

// less orders cursor a's current row before cursor b's.
func (m *runMerger) less(a, b int) bool {
	ca, cb := m.cursors[a], m.cursors[b]
	for k, key := range m.keys {
		c := compareSortLanes(m.classes[k], ca.cols[key.Pos], ca.pos, cb.cols[key.Pos], cb.pos)
		if c == 0 {
			continue
		}
		if key.Desc {
			return c > 0
		}
		return c < 0
	}
	return a < b // stability: the earlier input segment wins ties
}

// next emits up to BatchSize merged rows, nil at end of stream.
func (m *runMerger) next() (*vector.Batch, error) {
	if len(m.heap) == 0 {
		return nil, nil
	}
	out := make([]*vector.Vec, len(m.kinds))
	for c, k := range m.kinds {
		out[c] = vector.NewVec(k, 0)
	}
	rows := 0
	for rows < vector.BatchSize && len(m.heap) > 0 {
		ci := m.heap[0]
		cur := m.cursors[ci]
		for c := range out {
			out[c].AppendFrom(cur.cols[c], cur.pos)
		}
		rows++
		ok, err := cur.advance()
		if err != nil {
			return nil, err
		}
		if !ok {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
		}
		spill.DownHeap(m.heap, 0, m.less)
	}
	return &vector.Batch{N: rows, Cols: out}, nil
}

// mergePass merges the given runs into one new run (an intermediate pass
// of the multi-pass external sort) and closes the inputs.
func mergePass(res spill.Resources, runs []*spill.Run, keys []SortKey, classes []cmpClass, kinds []types.Kind) (*spill.Run, error) {
	m, err := newRunMerger(runs, keys, classes, kinds)
	if err != nil {
		return nil, err
	}
	out, err := spill.NewRun(res.Dir)
	if err != nil {
		return nil, err
	}
	for {
		b, err := m.next()
		if err != nil {
			out.Close() //nolint:errcheck
			return nil, err
		}
		if b == nil {
			break
		}
		if err := out.WriteCols(b.Cols, b.N); err != nil {
			out.Close() //nolint:errcheck
			return nil, err
		}
	}
	for _, r := range runs {
		r.Close() //nolint:errcheck — inputs are fully drained
	}
	if err := out.Finish(); err != nil {
		out.Close() //nolint:errcheck
		return nil, err
	}
	res.Res.NoteSpill(out.Bytes())
	return out, nil
}

// reduceRuns applies intermediate merge passes until at most mergeFanIn
// runs remain. The earliest runs merge first and the merged run takes
// their position, preserving the segment order the tie-break relies on.
func reduceRuns(res spill.Resources, runs []*spill.Run, keys []SortKey, classes []cmpClass, kinds []types.Kind) ([]*spill.Run, error) {
	for len(runs) > mergeFanIn {
		merged, err := mergePass(res, runs[:mergeFanIn], keys, classes, kinds)
		if err != nil {
			return runs, err
		}
		rest := append([]*spill.Run{merged}, runs[mergeFanIn:]...)
		runs = rest
	}
	return runs, nil
}

// closeRuns closes every run in the slice.
func closeRuns(runs []*spill.Run) {
	for _, r := range runs {
		r.Close() //nolint:errcheck — temp storage, already unlinked
	}
}
