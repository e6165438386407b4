package vexec_test

import (
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/mem"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vexec"
)

// tinyRes returns spill resources with the given session budget, plus
// the budget for stat assertions.
func tinyRes(t *testing.T, limit int64) (spill.Resources, *mem.Budget) {
	t.Helper()
	b := mem.NewGovernor(0).Session(limit)
	return spill.Resources{Res: b.Reserve("test"), Dir: t.TempDir()}, b
}

// rowStrings renders rows for exact (order-sensitive) comparison.
func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func assertSameRows(t *testing.T, got, want []types.Row, what string) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

// pairRows builds (i%mod, i, label) rows — duplicate keys, stable-order
// sensitive payloads, and a string column to exercise the codec.
func pairRows(n, mod int) []types.Row {
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i % mod)),
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("s%d", i%13)),
		}
	}
	return rows
}

var pairKinds = []types.Kind{types.KindInt, types.KindInt, types.KindString}

func colExpr(t *testing.T, col int, kind types.Kind) *vexec.Expr {
	t.Helper()
	e, err := vexec.CompileExpr(&algebra.Var{Col: col, Typ: kind, Name: "c"}, posBinder{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestVecSortSpillMultiPass forces dozens of spill runs (well past the
// merge fan-in) and requires the external sort's output to be identical
// to the in-memory sort's, stable ties included.
func TestVecSortSpillMultiPass(t *testing.T) {
	data := pairRows(50000, 97)
	keys := []vexec.SortKey{{Pos: 0}, {Pos: 2, Desc: true}}
	want := drainRows(t, vexec.NewVecSort(scanOf(t, pairKinds, data), keys))

	res, budget := tinyRes(t, 16<<10)
	ext := vexec.NewVecSort(scanOf(t, pairKinds, data), keys)
	ext.Spill = res
	assertSameRows(t, drainRows(t, ext), want, "external sort")
	st := budget.Stats()
	if st.SpillEvents < 10 {
		t.Fatalf("expected many spill runs (multi-pass), got %d events", st.SpillEvents)
	}
	if st.InUse != 0 {
		t.Fatalf("reservation leak: %d bytes", st.InUse)
	}
}

// TestHashAggSpill: partial-group flushing with state merge must produce
// the same groups, values and first-appearance order as the in-memory
// aggregation.
func TestHashAggSpill(t *testing.T) {
	data := pairRows(25000, 4999)
	mkAgg := func() *vexec.HashAgg {
		return vexec.NewHashAgg(
			scanOf(t, pairKinds, data),
			[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
			[]vexec.AggSpec{
				{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt},
				{Fn: algebra.AggSum, Arg: colExpr(t, 1, types.KindInt), ResultKind: types.KindInt},
				{Fn: algebra.AggMin, Arg: colExpr(t, 2, types.KindString), ResultKind: types.KindString},
				{Fn: algebra.AggMax, Arg: colExpr(t, 1, types.KindInt), ResultKind: types.KindInt},
				{Fn: algebra.AggAvg, Arg: colExpr(t, 1, types.KindInt), ResultKind: types.KindFloat},
			})
	}
	want := drainRows(t, mkAgg())
	res, budget := tinyRes(t, 24<<10)
	agg := mkAgg()
	agg.Spill = res
	assertSameRows(t, drainRows(t, agg), want, "spilled hash agg")
	if budget.Stats().BytesSpilled == 0 {
		t.Fatal("aggregation under a 24 KiB budget did not spill")
	}
}

// TestVecDistinctSpill: partitioned dedup must keep exactly the first
// occurrences, in first-appearance order.
func TestVecDistinctSpill(t *testing.T) {
	data := pairRows(25000, 6007)
	want := drainRows(t, vexec.NewVecDistinct(scanOf(t, pairKinds, data)))
	res, budget := tinyRes(t, 24<<10)
	d := vexec.NewVecDistinct(scanOf(t, pairKinds, data))
	d.Spill = res
	assertSameRows(t, drainRows(t, d), want, "spilled distinct")
	if budget.Stats().BytesSpilled == 0 {
		t.Fatal("distinct under a 24 KiB budget did not spill")
	}
}

// TestVecSetOpSpill covers the multiplicity-expanding merge of the
// spilled set operation across all kinds.
func TestVecSetOpSpill(t *testing.T) {
	left := pairRows(15000, 2003)
	right := pairRows(10000, 3001)
	for _, c := range []struct {
		kind vexec.SetOpKind
		all  bool
	}{
		{vexec.Union, false}, {vexec.Intersect, true}, {vexec.Intersect, false},
		{vexec.Except, true}, {vexec.Except, false},
	} {
		name := fmt.Sprintf("%v-all=%v", c.kind, c.all)
		want := drainRows(t, vexec.NewVecSetOp(
			scanOf(t, pairKinds, left), scanOf(t, pairKinds, right), c.kind, c.all))
		res, budget := tinyRes(t, 24<<10)
		op := vexec.NewVecSetOp(scanOf(t, pairKinds, left), scanOf(t, pairKinds, right), c.kind, c.all)
		op.Spill = res
		assertSameRows(t, drainRows(t, op), want, name)
		if budget.Stats().BytesSpilled == 0 {
			t.Fatalf("%s under a 24 KiB budget did not spill", name)
		}
	}
}

// TestHashJoinGrace: the partitioned join must emit exactly the
// in-memory join's stream — probe order, per-probe matches in
// build-input order, null extension included.
func TestHashJoinGrace(t *testing.T) {
	probe := pairRows(12000, 541)
	build := pairRows(6000, 761) // dup keys → multiple matches per probe row
	for _, jt := range []vexec.JoinType{vexec.InnerJoin, vexec.LeftJoin} {
		mk := func() *vexec.HashJoin {
			return vexec.NewHashJoin(
				scanOf(t, pairKinds, probe), scanOf(t, pairKinds, build),
				[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
				[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
				[]bool{false}, jt, pairKinds, pairKinds)
		}
		want := drainRows(t, mk())
		res, budget := tinyRes(t, 24<<10)
		j := mk()
		j.Spill = res
		assertSameRows(t, drainRows(t, j), want, fmt.Sprintf("grace join type=%d", jt))
		if budget.Stats().BytesSpilled == 0 {
			t.Fatalf("join type %d under a 24 KiB budget did not spill", jt)
		}
		if st := budget.Stats(); st.InUse != 0 {
			t.Fatalf("join type %d leaked %d reserved bytes", jt, st.InUse)
		}
	}
}

// TestHashJoinGraceNullSafe pins the null-safe key path through the
// partitioned join (NULL IS NOT DISTINCT FROM NULL must keep matching
// after the spill).
func TestHashJoinGraceNullSafe(t *testing.T) {
	withNulls := func(n, mod int) []types.Row {
		rows := pairRows(n, mod)
		for i := 0; i < n; i += 17 {
			rows[i][0] = types.NewNull(types.KindInt)
		}
		return rows
	}
	probe := withNulls(8000, 431)
	build := withNulls(3000, 653)
	mk := func() *vexec.HashJoin {
		return vexec.NewHashJoin(
			scanOf(t, pairKinds, probe), scanOf(t, pairKinds, build),
			[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
			[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
			[]bool{true}, vexec.InnerJoin, pairKinds, pairKinds)
	}
	want := drainRows(t, mk())
	res, budget := tinyRes(t, 24<<10)
	j := mk()
	j.Spill = res
	assertSameRows(t, drainRows(t, j), want, "null-safe grace join")
	if budget.Stats().BytesSpilled == 0 {
		t.Fatal("null-safe join under a 24 KiB budget did not spill")
	}
}
