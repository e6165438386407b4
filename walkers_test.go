package perm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"perm/internal/exec"
	"perm/internal/plan"
	"perm/internal/sql"
	"perm/internal/synth"
	"perm/internal/tpch"
	"perm/internal/vexec"
)

var (
	execNodeType  = reflect.TypeOf((*exec.Node)(nil)).Elem()
	vexecNodeType = reflect.TypeOf((*vexec.Node)(nil)).Elem()
)

// countOps counts the operators of a plan tree outside parallel worker
// replicas by reflection — every exec.Node or vexec.Node field is a
// child — independently of the plan package's own child enumeration.
func countOps(v reflect.Value) int {
	s := v.Elem()
	n := 1
	for i := 0; i < s.NumField(); i++ {
		f, ft := s.Field(i), s.Type().Field(i)
		if (ft.Type == execNodeType || ft.Type == vexecNodeType) && !f.IsNil() {
			n += countOps(f.Elem())
		}
	}
	return n
}

// TestPlanHealthWalkersComplete guards the single child enumeration and
// label switch every plan walk shares: over the Fig. 10 queries and the
// §V-B corpora, normal and with provenance, serial, parallel and under a
// spilling budget, no EXPLAIN or EXPLAIN ANALYZE line falls back to a Go
// type name, instrumentation probes every batch operator outside worker
// replicas, and an instrumented tree explains exactly like the plain
// one. An operator type missing from either switch fails here instead
// of silently vanishing from traces and estimates.
func TestPlanHealthWalkersComplete(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"serial", Options{MemoryLimit: -1, Parallelism: 1}},
		{"parallel", Options{MemoryLimit: -1, Parallelism: 2}},
		{"budgeted", Options{MemoryLimit: 64 << 10, Parallelism: 1}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			db := NewDatabaseWithOptions(cfg.opts)
			tpch.MustLoad(db, 0.002, 42)
			maxKey, err := db.TableRowCount("part")
			if err != nil {
				t.Fatal(err)
			}
			rng := tpch.NewRand(7)
			for _, n := range []int{1, 3, 10, 15} {
				q := tpch.MustQGen(n, rng)
				for _, s := range q.Setup {
					db.MustExec(s)
				}
				assertWalkersComplete(t, db, q.Text)
				assertWalkersComplete(t, db, q.Provenance().Text)
				for _, s := range q.Teardown {
					db.MustExec(s)
				}
			}
			for seed := uint64(1); seed <= 3; seed++ {
				r := tpch.NewRand(seed)
				for _, q := range []string{
					synth.SPJQuery(r, int(seed)+1, maxKey),
					synth.SetOpQuery(r, int(seed)+1, maxKey),
					synth.AggChainQuery(int(seed), maxKey),
				} {
					i := strings.Index(q, "SELECT") + len("SELECT")
					assertWalkersComplete(t, db, q)
					assertWalkersComplete(t, db, q[:i]+" PROVENANCE"+q[i:])
				}
			}
		})
	}
}

func assertWalkersComplete(t *testing.T, db *Database, text string) {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.analyzeAndRewrite(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	node, err := db.planner().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	noTypeLabels := func(kind, out string) {
		t.Helper()
		if strings.Contains(out, "*exec.") || strings.Contains(out, "*vexec.") {
			t.Fatalf("%s fell back to a Go type label for %s:\n%s", kind, text, out)
		}
	}
	plain := plan.Explain(node)
	noTypeLabels("EXPLAIN", plain)
	ops := countOps(reflect.ValueOf(node))

	node = plan.Instrument(node)
	if _, err := drain(node, nil); err != nil {
		t.Fatal(err)
	}
	if got := plan.Explain(node); got != plain {
		t.Fatalf("instrumented tree explains differently for %s:\n%s\nvs plain\n%s", text, got, plain)
	}
	// Every operator but the root batch→row adapter is probed.
	if spans := plan.OperatorSpans(node); len(spans) != ops-1 {
		t.Fatalf("%d operator spans for %d operators in %s:\n%s", len(spans), ops, text, plain)
	}
	noTypeLabels("EXPLAIN ANALYZE", plan.ExplainAnalyzed(node, 0, 0, 0))
}

// PlanOf compiles and plans a SELECT the way Query does and returns the
// physical plan, for tests that inspect plan trees.
func PlanOf(db *Database, text string) (exec.Node, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", text)
	}
	q, err := db.analyzeAndRewrite(sel)
	if err != nil {
		return nil, err
	}
	return db.planner().Plan(q)
}
