// EXPLAIN, EXPLAIN ANALYZE and the per-operator harvests over physical
// plans.
//
// Every walk over a plan tree goes through two functions: eachChild, the
// one place that knows each operator's children, and describe, the one
// place that knows each operator's labels. Explain, ExplainAnalyzed,
// Instrument, OperatorSpans, OperatorEstimates, Hash and vnodeShape are
// thin uses of them, so they cannot disagree about which operators a
// tree holds.
//
// Instrument wraps the batch operators of a freshly planned tree with
// probe nodes (vexec.Probe) that time every operator and count what it
// emits; the tree then executes exactly as planned — probes forward
// batches by pointer — and ExplainAnalyzed re-renders the same EXPLAIN
// tree with the observed runtime per operator attached. The root
// batch→row adapter stays unprobed, so an instrumented plan drains like
// any other. Instrumentation
// happens after parallelize, so plan shape validation (which renders
// replica trees to strings) never sees a probe, and parallel worker
// subtrees — which run on their own goroutines — are never wrapped: the
// parallel operator itself is probed as a unit, and worker-local detail
// (per-worker morsel counts, worker spills) is read from the replica
// trees after the operators' own barriers have published it.
package plan

import (
	"fmt"
	"strings"
	"time"

	"perm/internal/exec"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/vexec"
)

// eachChild calls f with the address of each child slot of operator n
// in EXPLAIN order. A parallel operator's child is its first worker
// replica's input (replicas are validated to be shape-identical, so one
// stands for all; the operators are always built with at least one),
// enumerated only when workers is set.
func eachChild(n any, workers bool, f func(slot *vexec.Node)) {
	switch x := n.(type) {
	case *vexec.RowSource:
		f(&x.Input)
	case *vexec.Filter:
		f(&x.Input)
	case *vexec.Project:
		f(&x.Input)
	case *vexec.HashJoin:
		f(&x.Left)
		f(&x.Right)
	case *vexec.NLJoin:
		f(&x.Left)
		f(&x.Right)
	case *vexec.HashAgg:
		f(&x.Input)
	case *vexec.VecSort:
		f(&x.Input)
	case *vexec.VecTopN:
		f(&x.Input)
	case *vexec.VecLimit:
		f(&x.Input)
	case *vexec.VecDistinct:
		f(&x.Input)
	case *vexec.VecSetOp:
		f(&x.Left)
		f(&x.Right)
	case *vexec.Exchange:
		if workers {
			f(&x.Workers[0].Input)
		}
	case *vexec.ParallelAgg:
		if workers {
			f(&x.Workers[0].Input)
		}
	case *vexec.ParallelSort:
		if workers {
			f(&x.Workers[0].Input)
		}
	}
}

// opDesc is what describe knows about one operator.
type opDesc struct {
	name  string // trace span and estimate name: the label's stem unless set explicitly
	label string // EXPLAIN line
	scan  bool   // a relation scan, whose table is folded into plan hashes
	table string
	// Filled only when describing an analyzed tree:
	extra  []string // operator-specific EXPLAIN ANALYZE annotations
	pruned int64    // rows runtime join filters removed at this scan
}

// describe renders operator n's labels; analyzed adds what only an
// executed tree can report. Unknown operator types fall back to their Go
// type name, which the walker tests reject.
func describe(n any, analyzed bool) opDesc {
	var d opDesc
	switch x := n.(type) {
	case *vexec.RowSource:
		d.label = "BatchToRow"
	case *vexec.ColScan:
		d.scan, d.table = true, x.Table
		if !x.HasRuntimeFilters() {
			d.label = fmt.Sprintf("VecScan (%d rows)", x.NumRows)
		} else {
			d.label = fmt.Sprintf("VecScan (%d rows, RuntimeFilter)", x.NumRows)
		}
		if analyzed {
			if m := x.MorselsTaken(); m > 0 {
				d.extra = append(d.extra, fmt.Sprintf("morsels=%d", m))
			}
			if x.HasRuntimeFilters() {
				tested, admitted := x.RuntimeFilterStats()
				d.pruned = int64(tested - admitted)
				d.extra = append(d.extra, fmt.Sprintf("rf=%d/%d admitted", admitted, tested))
			}
		}
	case *vexec.Filter:
		d.label = "VecFilter"
	case *vexec.Project:
		d.label = fmt.Sprintf("VecProject (%d cols)", len(x.Exprs))
	case *vexec.HashJoin:
		rf := ""
		if x.PublishesFilters() {
			rf = ", RuntimeFilter"
		}
		d.label = fmt.Sprintf("VecHashJoin (%s, %d keys%s%s)", joinName(x.Type), len(x.LeftKeys), rf, spillTag(x.Spill))
		d.extra = resAnnot(analyzed, x.Spill)
	case *vexec.NLJoin:
		d.label = fmt.Sprintf("VecNestedLoopJoin (%s)", joinName(x.Type))
	case *vexec.HashAgg:
		d.label = fmt.Sprintf("VecHashAggregate (%d groups, %d aggs%s)", len(x.Groups), len(x.Aggs), spillTag(x.Spill))
		d.extra = resAnnot(analyzed, x.Spill)
	case *vexec.VecSort:
		d.label = fmt.Sprintf("VecSort (%d keys%s)", len(x.Keys), spillTag(x.Spill))
		d.extra = resAnnot(analyzed, x.Spill)
	case *vexec.VecTopN:
		d.label = fmt.Sprintf("VecTopN (%d keys, keep %d)", len(x.Keys), x.Offset+x.Count)
	case *vexec.VecLimit:
		d.label = "VecLimit"
	case *vexec.VecDistinct:
		d.label = "VecDistinct"
		if tag := spillTag(x.Spill); tag != "" {
			d.label = fmt.Sprintf("VecDistinct (%s)", tag[2:])
			d.extra = resAnnot(analyzed, x.Spill)
		}
	case *vexec.VecSetOp:
		d.label = fmt.Sprintf("VecSetOp (%s, all=%v%s)", setOpName(x.Kind), x.All, spillTag(x.Spill))
		d.extra = resAnnot(analyzed, x.Spill)
	case *vexec.Exchange:
		d.label = fmt.Sprintf("Exchange (workers=%d)", len(x.Workers))
		if analyzed {
			d.extra = workerAnnot(x.Workers, func(w *vexec.MorselTap) (vexec.Node, spill.Resources) {
				return w.Input, spill.Resources{}
			})
		}
	case *vexec.ParallelAgg:
		h := x.Workers[0]
		d.name = "ParallelAgg"
		d.label = fmt.Sprintf("VecHashAggregate (%d groups, %d aggs%s, workers=%d)",
			len(h.Groups), len(h.Aggs), spillTag(h.Spill), len(x.Workers))
		if analyzed {
			d.extra = workerAnnot(x.Workers, func(w *vexec.HashAgg) (vexec.Node, spill.Resources) {
				return w.Input, w.Spill
			})
		}
	case *vexec.ParallelSort:
		w0 := x.Workers[0]
		d.name = "ParallelSort"
		d.label = fmt.Sprintf("VecSort (%d keys%s, workers=%d)", len(w0.Keys), spillTag(w0.Spill), len(x.Workers))
		if analyzed {
			d.extra = workerAnnot(x.Workers, func(w *vexec.VecSort) (vexec.Node, spill.Resources) {
				return w.Input, w.Spill
			})
		}
	default:
		d.label = fmt.Sprintf("%T", n)
	}
	if d.name == "" {
		d.name, _, _ = strings.Cut(d.label, " (")
	}
	return d
}

// unwrap looks through probes and morsel taps to the operator they
// wrap, returning it with the probe's measurements (nil when unprobed).
func unwrap(n any) (any, *obs.OpStats) {
	var st *obs.OpStats
	for {
		switch x := n.(type) {
		case *vexec.Probe:
			n, st = x.Input, x.Stats
		case *vexec.MorselTap:
			n = x.Input
		default:
			return n, st
		}
	}
}

// walk visits operator n and then, in pre-order, every operator below
// it, including the first worker replica under each parallel operator.
// visit gets the operator with probes and taps looked through, its
// probe's measurements (nil when unprobed) and its depth below n.
func walk(n any, depth int, visit func(op any, st *obs.OpStats, depth int)) {
	op, st := unwrap(n)
	visit(op, st, depth)
	eachChild(op, true, func(c *vexec.Node) { walk(*c, depth+1, visit) })
}

// appendLine appends one indented EXPLAIN line.
func appendLine(out []byte, depth int, label, annotation string) []byte {
	for i := 0; i < depth; i++ {
		out = append(out, "  "...)
	}
	out = append(out, label...)
	out = append(out, annotation...)
	return append(out, '\n')
}

// Explain renders a plan tree as an indented string (EXPLAIN output).
func Explain(n exec.Node) string { return explain(n) }

func explain(n any) string {
	var out []byte
	walk(n, 0, func(op any, _ *obs.OpStats, depth int) {
		out = appendLine(out, depth, describe(op, false).label, "")
	})
	return string(out)
}

// Instrument wraps every batch operator of a planned tree with an
// EXPLAIN ANALYZE probe and returns the root. The tree is modified in
// place (children are rewrapped); plan trees are per-execution, so
// nothing shared is touched. Parallel operators are probed as a unit:
// their worker subtrees run concurrently and must not share a
// coordinator-side collector.
func Instrument(n exec.Node) exec.Node {
	eachChild(n, false, instrument)
	return n
}

func instrument(slot *vexec.Node) {
	eachChild(*slot, false, instrument)
	*slot = vexec.NewProbe(*slot)
}

// ExplainAnalyzed renders an instrumented tree after execution: the
// EXPLAIN plan with per-operator runtime annotations, followed by a
// plan-total summary line (wall time, peak memory reservation, spilled
// bytes) so operators need not sum the per-operator rows by hand.
func ExplainAnalyzed(n exec.Node, total time.Duration, peakMem, spilled int64) string {
	var out []byte
	walk(n, 0, func(op any, st *obs.OpStats, depth int) {
		d := describe(op, true)
		out = appendLine(out, depth, d.label, annot(op, st, d))
	})
	out = append(out, fmt.Sprintf("Execution time: %s (peak memory %dB, spilled %dB)\n",
		fmtDur(total.Nanoseconds()), peakMem, spilled)...)
	return string(out)
}

// OperatorSpans harvests the probe measurements of an instrumented tree
// as trace spans, one per probed operator in plan (pre-order) position;
// the root's input nests one level below the execute phase span. Start
// offsets are not knowable from cumulative probe counters, so spans
// carry durations only.
func OperatorSpans(n exec.Node) []obs.Span {
	var spans []obs.Span
	walk(n, 0, func(op any, st *obs.OpStats, depth int) {
		if st != nil {
			spans = append(spans, obs.Span{Name: describe(op, false).name, Depth: depth, DurNS: st.TotalNS(), Rows: st.Rows})
		}
	})
	return spans
}

// OperatorEstimates harvests, after execution, one (operator name,
// estimated rows, actual rows) triple per probed operator that carries a
// planner estimate. The triples feed the per-fingerprint statement store
// behind perm_stat_estimates, scored exactly as ExplainAnalyzed scores
// them. Operators without an estimate or without a probe (parallel
// worker replicas) are skipped — their enclosing parallel operator is
// probed as a unit and reports for them.
func OperatorEstimates(n exec.Node) []obs.OpEst {
	var out []obs.OpEst
	walk(n, 0, func(op any, st *obs.OpStats, _ int) {
		if est := estOf(op); st != nil && est > 0 {
			d := describe(op, true)
			out = append(out, obs.OpEst{Op: d.name, EstRows: est, ActRows: actual(st, d)})
		}
	})
	return out
}

// actual is the row count an operator's estimate is scored against: what
// it produced before runtime join filters pruned it. A scan's estimate
// models its relation, not the filters a join publishes into it, so
// scoring the filtered output would report the filters' selectivity as
// planner error. Each pruned lane counts once, at the binding that
// rejected it, so emitted plus pruned is exact.
func actual(st *obs.OpStats, d opDesc) int64 { return st.Rows + d.pruned }

// annot renders the shared probe annotation: wall time, emitted rows
// and batches, then the planner's cardinality estimate next
// to the actual rows and their q-error, plus any operator-specific
// extras. Nodes without a probe (worker replica subtrees) still show
// their estimate and extras.
func annot(op any, st *obs.OpStats, d opDesc) string {
	var parts []string
	if st != nil {
		parts = append(parts, "time="+fmtDur(st.TotalNS()), fmt.Sprintf("rows=%d", st.Rows),
			fmt.Sprintf("batches=%d", st.Batches))
	}
	if est := estOf(op); est > 0 {
		parts = append(parts, fmt.Sprintf("est=%.0f", est))
		if st != nil {
			act := actual(st, d)
			parts = append(parts, fmt.Sprintf("act=%d", act), fmt.Sprintf("qerr=%.2f", obs.QError(est, act)))
		}
	}
	parts = append(parts, d.extra...)
	if len(parts) == 0 {
		return ""
	}
	return " (actual " + strings.Join(parts, " ") + ")"
}

// estOf reads a node's planner cardinality estimate, looking through
// probes, morsel taps and estimate-less batch→row adapters (the adapter
// emits exactly what its input does). 0 means no estimate.
func estOf(n any) float64 {
	n, _ = unwrap(n)
	if rs, ok := n.(*vexec.RowSource); ok && rs.EstRows <= 0 {
		return estOf(rs.Input)
	}
	if c, ok := n.(interface{ EstimatedRows() float64 }); ok {
		return c.EstimatedRows()
	}
	return 0
}

// resAnnot renders an analyzed spill-capable operator's memory
// annotation from its reservation: peak bytes held, and spill
// events/bytes when it spilled.
func resAnnot(analyzed bool, res spill.Resources) []string {
	r := res.Res
	if !analyzed || r == nil {
		return nil
	}
	var parts []string
	if p := r.Peak(); p > 0 {
		parts = append(parts, fmt.Sprintf("mem=%dB", p))
	}
	if e := r.SpillEvents(); e > 0 {
		parts = append(parts, fmt.Sprintf("spills=%d spilled=%dB", e, r.SpillBytes()))
	}
	return parts
}

// workerAnnot renders a parallel operator's per-worker morsel counts and
// aggregated worker spill counters (read after the operator's barrier);
// worker returns a replica's input and spill resources.
func workerAnnot[W any](workers []W, worker func(W) (vexec.Node, spill.Resources)) []string {
	counts := make([]int, len(workers))
	var events, bytes int64
	for i, w := range workers {
		in, res := worker(w)
		if d := spineDriver(in); d != nil {
			counts[i] = d.MorselsTaken()
		}
		events += res.Res.SpillEvents()
		bytes += res.Res.SpillBytes()
	}
	parts := []string{fmt.Sprintf("morsels/worker=%v", counts)}
	if events > 0 {
		parts = append(parts, fmt.Sprintf("spills=%d spilled=%dB", events, bytes))
	}
	return parts
}

// fmtDur renders nanoseconds rounded to the microsecond (exact below
// that), so annotations stay readable without losing nonzero timings.
func fmtDur(ns int64) string {
	d := time.Duration(ns)
	if r := d.Round(time.Microsecond); r != 0 {
		d = r
	}
	return d.String()
}
