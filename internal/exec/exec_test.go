package exec_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"perm"
	"perm/internal/exec"
	"perm/internal/types"
	"perm/internal/vector"
	"perm/internal/vexec"
)

// These tests pin the SQL semantics of the physical operators — joins of
// every type, aggregation, sorting, limits, duplicate elimination, set
// operations and error propagation — end to end through the engine, over
// plans whose root is the exec.Node every plan exposes.

// newDB returns a database holding the given script's tables.
func newDB(t *testing.T, script string) *perm.Database {
	t.Helper()
	db := perm.NewDatabase()
	db.MustExec(script)
	return db
}

// query runs a statement and renders each row as "v1,v2,..." with NULL
// for NULLs, in result order.
func query(t *testing.T, db *perm.Database, text string) []string {
	t.Helper()
	res, err := db.Query(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if v.IsNull() {
				parts[j] = "NULL"
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, ",")
	}
	return out
}

// wantRows compares results as multisets.
func wantRows(t *testing.T, text string, got []string, want ...string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s:\ngot  %v\nwant %v", text, got, want)
	}
}

// wantOrdered compares results in order.
func wantOrdered(t *testing.T, text string, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s:\ngot  %v\nwant %v", text, got, want)
	}
}

// wantPlan requires the EXPLAIN output to mention an operator label.
func wantPlan(t *testing.T, db *perm.Database, text, label string) {
	t.Helper()
	plan, err := db.ExplainSQL(text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, label) {
		t.Fatalf("plan of %s lacks %q:\n%s", text, label, plan)
	}
}

func TestScanAndFilter(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2), (3);`)
	q := `SELECT x FROM t WHERE x >= 2`
	wantRows(t, q, query(t, db, q), "2", "3")
}

// TestScanReopen: a plan reopened after a full drain yields its rows
// again.
func TestScanReopen(t *testing.T) {
	col := vector.NewVec(types.KindInt, 1)
	col.Set(0, types.NewInt(1))
	root := vexec.NewRowSource(vexec.NewColScan([]*vector.Vec{col}, 1))
	for i := 0; i < 2; i++ {
		got, err := exec.Collect(root)
		if err != nil || len(got) != 1 || got[0][0].I != 1 {
			t.Fatalf("pass %d: %v %v", i, got, err)
		}
	}
}

func TestProject(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (x int, y int); INSERT INTO t VALUES (1, 10);`)
	q := `SELECT y * 2, x FROM t`
	wantRows(t, q, query(t, db, q), "20,1")
}

const joinTables = `
	CREATE TABLE l (x int);
	INSERT INTO l VALUES (1), (2), (3);
	CREATE TABLE r (a int, b int);
	INSERT INTO r VALUES (2, 20), (2, 21), (4, 40);
`

// TestNestedLoopJoinTypes: a join condition without equi-keys runs as a
// nested-loop join, whose condition decides matches for every join
// type.
func TestNestedLoopJoinTypes(t *testing.T) {
	db := newDB(t, joinTables)
	cond := `l.x <= r.a AND l.x >= r.a`
	for _, c := range []struct {
		name, join string
		want       []string
	}{
		{"inner", "JOIN", []string{"2,2,20", "2,2,21"}},
		{"left", "LEFT JOIN", []string{"1,NULL,NULL", "2,2,20", "2,2,21", "3,NULL,NULL"}},
		{"right", "RIGHT JOIN", []string{"2,2,20", "2,2,21", "NULL,4,40"}},
		{"full", "FULL JOIN", []string{"1,NULL,NULL", "2,2,20", "2,2,21", "3,NULL,NULL", "NULL,4,40"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := fmt.Sprintf(`SELECT x, a, b FROM l %s r ON %s`, c.join, cond)
			wantPlan(t, db, q, "VecNestedLoopJoin")
			wantRows(t, q, query(t, db, q), c.want...)
		})
	}
	t.Run("cross", func(t *testing.T) {
		q := `SELECT x, a, b FROM l CROSS JOIN r`
		if got := query(t, db, q); len(got) != 9 {
			t.Fatalf("cross join rows = %d, want 9", len(got))
		}
	})
}

// TestHashJoinMatchesNestedLoop: for every join type the hash join on an
// equi-key returns what the nested-loop join over the equivalent range
// condition returns.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE l (x int);
		INSERT INTO l VALUES (1), (2), (2), (5), (NULL);
		CREATE TABLE r (a int, b int);
		INSERT INTO r VALUES (2, 20), (5, 50), (7, 70), (NULL, 0);
	`)
	for i, join := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"} {
		t.Run(fmt.Sprintf("type%d", i), func(t *testing.T) {
			hash := fmt.Sprintf(`SELECT x, a, b FROM l %s r ON l.x = r.a`, join)
			loop := fmt.Sprintf(`SELECT x, a, b FROM l %s r ON l.x <= r.a AND l.x >= r.a`, join)
			wantPlan(t, db, hash, "VecHashJoin")
			wantPlan(t, db, loop, "VecNestedLoopJoin")
			wantRows(t, hash, query(t, db, hash), query(t, db, loop)...)
		})
	}
}

// TestHashJoinNullSafety: NULL keys never match under =, and match each
// other under IS NOT DISTINCT FROM (the rewriter's join-back).
func TestHashJoinNullSafety(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE l (x int); INSERT INTO l VALUES (NULL), (1);
		CREATE TABLE r (a int); INSERT INTO r VALUES (NULL), (1);
	`)
	q := `SELECT x, a FROM l JOIN r ON l.x = r.a`
	wantRows(t, q, query(t, db, q), "1,1")
	q = `SELECT x, a FROM l JOIN r ON l.x IS NOT DISTINCT FROM r.a`
	wantPlan(t, db, q, "VecHashJoin")
	wantRows(t, q, query(t, db, q), "1,1", "NULL,NULL")
}

// TestHashJoinResidual: an outer join's residual condition takes part in
// the match decision, so a key match failing it null-extends.
func TestHashJoinResidual(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE l (k int, v int); INSERT INTO l VALUES (2, 1), (2, 9);
		CREATE TABLE r (k int, w int); INSERT INTO r VALUES (2, 5);
	`)
	q := `SELECT l.k, v, r.k, w FROM l LEFT JOIN r ON l.k = r.k AND v < w`
	wantPlan(t, db, q, "VecHashJoin (left")
	wantRows(t, q, query(t, db, q), "2,1,2,5", "2,9,NULL,NULL")
	q = `SELECT l.k, v, r.k, w FROM l RIGHT JOIN r ON l.k = r.k AND v > w`
	wantRows(t, q, query(t, db, q), "2,9,2,5")
	q = `SELECT l.k, v, r.k, w FROM l FULL JOIN r ON l.k = r.k AND v > 100`
	wantRows(t, q, query(t, db, q), "2,1,NULL,NULL", "2,9,NULL,NULL", "NULL,NULL,2,5")
}

func TestHashAggGlobal(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2), (3);`)
	q := `SELECT count(*), sum(x), avg(x), min(x), max(x) FROM t`
	wantRows(t, q, query(t, db, q), "3,6,2,1,3")
}

// TestHashAggEmptyInput: a global aggregate over empty input yields one
// row of defaults; a grouped one yields none.
func TestHashAggEmptyInput(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (x int);`)
	q := `SELECT count(*), sum(x) FROM t`
	wantRows(t, q, query(t, db, q), "0,NULL")
	q = `SELECT x, count(*) FROM t GROUP BY x`
	wantRows(t, q, query(t, db, q))
}

// TestHashAggGroupsAndDistinct: DISTINCT aggregates fold each distinct
// non-NULL value once per group.
func TestHashAggGroupsAndDistinct(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (g int, v int);
		INSERT INTO t VALUES (1, 10), (1, 10), (1, 20), (1, NULL), (2, 30), (2, NULL), (3, NULL);
	`)
	q := `SELECT g, count(v), count(DISTINCT v), sum(DISTINCT v) FROM t GROUP BY g`
	wantRows(t, q, query(t, db, q), "1,3,2,30", "2,1,1,30", "3,0,0,NULL")
}

// TestHashAggNullGroups: NULL grouping values form one group.
func TestHashAggNullGroups(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (g int); INSERT INTO t VALUES (NULL), (NULL), (1);`)
	q := `SELECT g, count(*) FROM t GROUP BY g`
	wantRows(t, q, query(t, db, q), "NULL,2", "1,1")
}

// TestSortNullsOrdering: NULLs sort last ascending, first descending.
func TestSortNullsOrdering(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (x int); INSERT INTO t VALUES (2), (NULL), (1);`)
	q := `SELECT x FROM t ORDER BY x`
	wantOrdered(t, q, query(t, db, q), "1", "2", "NULL")
	q = `SELECT x FROM t ORDER BY x DESC`
	wantOrdered(t, q, query(t, db, q), "NULL", "2", "1")
}

// TestSortStability: rows with equal keys keep their input order.
func TestSortStability(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (k int, seq int); INSERT INTO t VALUES (1, 1), (0, 0), (1, 2), (1, 3);`)
	q := `SELECT k, seq FROM t ORDER BY k`
	wantOrdered(t, q, query(t, db, q), "0,0", "1,1", "1,2", "1,3")
}

func TestLimitOffset(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2), (3), (4);`)
	q := `SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 1`
	wantOrdered(t, q, query(t, db, q), "2", "3")
	q = `SELECT x FROM t LIMIT 0`
	wantOrdered(t, q, query(t, db, q))
	q = `SELECT x FROM t ORDER BY x OFFSET 2`
	wantOrdered(t, q, query(t, db, q), "3", "4")
}

// TestDistinctNode: DISTINCT treats NULLs as equal.
func TestDistinctNode(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (x int); INSERT INTO t VALUES (1), (1), (NULL), (NULL);`)
	q := `SELECT DISTINCT x FROM t`
	wantRows(t, q, query(t, db, q), "1", "NULL")
}

// TestSetOpSemantics: the multiset semantics of the paper's Fig. 1 —
// UNION ALL adds multiplicities, INTERSECT ALL takes the minimum, EXCEPT
// ALL subtracts; the set variants remove duplicates.
func TestSetOpSemantics(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE l (x int); INSERT INTO l VALUES (1), (2), (2), (3);
		CREATE TABLE r (x int); INSERT INTO r VALUES (2), (3), (3), (4);
	`)
	cases := []struct {
		kind int
		op   string
		all  bool
		want []string
	}{
		{0, "UNION", false, []string{"1", "2", "3", "4"}},
		{0, "UNION", true, []string{"1", "2", "2", "3", "2", "3", "3", "4"}},
		{1, "INTERSECT", false, []string{"2", "3"}},
		{1, "INTERSECT", true, []string{"2", "3"}},
		{2, "EXCEPT", false, []string{"1"}},
		{2, "EXCEPT", true, []string{"1", "2"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%d-all=%v", tc.kind, tc.all), func(t *testing.T) {
			op := tc.op
			if tc.all {
				op += " ALL"
			}
			q := fmt.Sprintf(`SELECT x FROM l %s SELECT x FROM r`, op)
			wantRows(t, q, query(t, db, q), tc.want...)
		})
	}
}

// TestSetOpNullRows: set operations treat NULL rows as equal.
func TestSetOpNullRows(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE l (x int); INSERT INTO l VALUES (NULL), (NULL), (1);
		CREATE TABLE r (x int); INSERT INTO r VALUES (NULL);
	`)
	q := `SELECT x FROM l EXCEPT ALL SELECT x FROM r`
	wantRows(t, q, query(t, db, q), "NULL", "1")
}

// TestFilterErrorPropagation: an error raised while evaluating a filter
// or projection expression reaches the caller.
func TestFilterErrorPropagation(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (x int); INSERT INTO t VALUES (1);`)
	for _, q := range []string{
		`SELECT x FROM t WHERE 10 / (x - 1) > 0`,
		`SELECT 10 / (x - 1) FROM t`,
		`SELECT x FROM t WHERE CASE WHEN x = 1 THEN 10 / (x - 1) ELSE 0 END > 0`,
	} {
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s: want a division-by-zero error, got %v", q, err)
		}
	}
}
