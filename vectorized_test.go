package perm_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"perm"
	"perm/internal/exec"
	"perm/internal/tpch"
	"perm/internal/vexec"
)

// Row operators implement exec.Node, batch operators vexec.Node; a plan
// field of either interface type, or a slice of either kind of
// operator (parallel worker replicas), holds child operators.
var (
	rowIface   = reflect.TypeOf((*exec.Node)(nil)).Elem()
	batchIface = reflect.TypeOf((*vexec.Node)(nil)).Elem()
)

// refOptions is the reference configuration the transparency suites
// compare the default one with: optimizer off, serial, unbudgeted.
var refOptions = perm.Options{DisableOptimizer: true, Parallelism: 1, MemoryLimit: -1}

// refPair builds two databases over the same DDL/DML script, one with
// the default configuration and one with refOptions.
func refPair(t testing.TB, script string) (def, ref *perm.Database) {
	t.Helper()
	def = perm.NewDatabase()
	ref = perm.NewDatabaseWithOptions(refOptions)
	def.MustExec(script)
	ref.MustExec(script)
	return def, ref
}

// vecFixture extends the optimizer-transparency fixture with the
// date-typed table the SQL-logic corpus uses.
const vecFixture = transparencyFixture + `
	CREATE TABLE events (id int, d date);
	INSERT INTO events VALUES (1, '1995-01-15'), (2, '1995-06-17'), (3, '1996-03-01');
	CREATE VIEW big_pairs AS SELECT a, b FROM pairs WHERE b >= 20;
`

// logicCorpus mirrors the SQL-logic test corpus (sql_logic_test.go):
// every query shape the SQL-logic tests pin, re-run here against the
// row-engine oracle. CASE, casts, function calls and quantified
// sublinks exercise the fallback expression kernel; right and full
// joins, DISTINCT aggregates and mixed-kind set operations the operator
// extensions that replaced the row engine.
var logicCorpus = []string{
	// Selection, projection, scalar expressions.
	`SELECT n FROM nums WHERE n < 3`,
	`SELECT * FROM pairs WHERE a = 1`,
	`SELECT n * 10 + 1 FROM nums WHERE n = 2`,
	`SELECT n AS num FROM nums WHERE n IS NULL`,
	`SELECT 1 + 2, 'x'`,
	`SELECT n FROM nums WHERE n > 0`,
	`SELECT DISTINCT a FROM pairs`,
	`SELECT label FROM nums WHERE n IS NULL`,
	`SELECT n FROM nums WHERE label IS NOT NULL AND n IS NOT NULL`,
	`SELECT count(*) FROM nums WHERE n IS DISTINCT FROM 1`,
	`SELECT n FROM nums WHERE n IN (1, 3, 99)`,
	`SELECT n FROM nums WHERE n NOT IN (1, 3)`,
	`SELECT n FROM nums WHERE n BETWEEN 2 AND 3`,
	`SELECT label FROM nums WHERE label LIKE 't%'`,
	`SELECT label FROM nums WHERE label LIKE '_n_'`,
	`SELECT CASE WHEN n < 3 THEN 'lo' ELSE 'hi' END FROM nums WHERE n IS NOT NULL`,
	`SELECT CAST(n AS text) FROM nums WHERE n = 1`,
	`SELECT coalesce(n, 0) FROM nums`,
	`SELECT upper(label), length(label), substring(label, 1, 2) FROM nums WHERE n = 3`,
	`SELECT label || '!' FROM nums WHERE n = 1`,
	// Joins of every flavour.
	`SELECT n, b FROM nums, pairs WHERE n = a`,
	`SELECT n, b FROM nums JOIN pairs ON n = a`,
	`SELECT n, b FROM nums LEFT JOIN pairs ON n = a WHERE n IS NOT NULL`,
	`SELECT n, b FROM nums RIGHT JOIN pairs ON n = a`,
	`SELECT n, b FROM nums FULL JOIN pairs ON n = a`,
	`SELECT count(*) FROM nums CROSS JOIN pairs`,
	`SELECT n, a FROM nums JOIN pairs ON n < a WHERE n = 4`,
	`SELECT p1.a, p2.b FROM pairs AS p1, pairs AS p2 WHERE p1.b = p2.b AND p1.a = 5`,
	`SELECT count(*) FROM nums, pairs, empty_t`,
	// Aggregation.
	`SELECT count(*), count(n), sum(n), min(n), max(n) FROM nums`,
	`SELECT avg(b) FROM pairs`,
	`SELECT a, count(*), sum(b) FROM pairs GROUP BY a`,
	`SELECT n % 2, count(*) FROM nums WHERE n IS NOT NULL GROUP BY n % 2`,
	`SELECT a FROM pairs GROUP BY a HAVING count(*) > 1`,
	`SELECT sum(b) FROM pairs HAVING count(*) > 100`,
	`SELECT count(*), sum(x), min(x) FROM empty_t`,
	`SELECT x, count(*) FROM empty_t GROUP BY x`,
	`SELECT n, count(*) FROM nums GROUP BY n`,
	`SELECT count(DISTINCT a) FROM pairs`,
	`SELECT sum(DISTINCT a) FROM pairs`,
	`SELECT sum(b) / count(*) FROM pairs`,
	`SELECT n, count(b) FROM nums JOIN pairs ON n = a GROUP BY n`,
	`SELECT min(label), max(label) FROM nums`,
	// Set operations.
	`SELECT a FROM pairs UNION SELECT n FROM nums WHERE n <= 2`,
	`SELECT a FROM pairs UNION ALL SELECT n FROM nums WHERE n <= 2`,
	`SELECT a FROM pairs INTERSECT SELECT n FROM nums`,
	`SELECT a FROM pairs EXCEPT SELECT n FROM nums`,
	// Sublinks.
	`SELECT n FROM nums WHERE n = (SELECT min(a) FROM pairs)`,
	`SELECT n FROM nums WHERE n IN (SELECT a FROM pairs)`,
	`SELECT a FROM pairs WHERE a NOT IN (SELECT n FROM nums)`,
	`SELECT n FROM nums WHERE n > ANY (SELECT a FROM pairs WHERE a < 3)`,
	`SELECT n FROM nums WHERE n <= ALL (SELECT a FROM pairs)`,
	// Ordering and limits.
	`SELECT n FROM nums ORDER BY n`,
	`SELECT n * -1 AS neg FROM nums WHERE n IS NOT NULL ORDER BY neg`,
	`SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 2`,
	`SELECT a, sum(b) AS s FROM pairs GROUP BY a ORDER BY s DESC`,
	// Subqueries and views.
	`SELECT s.n FROM (SELECT n FROM nums WHERE n < 3) AS s`,
	`SELECT total FROM (SELECT a, sum(b) AS total FROM pairs GROUP BY a) AS t WHERE total > 20`,
	`SELECT s1.n, s2.total FROM (SELECT n FROM nums) AS s1 JOIN (SELECT a, sum(b) AS total FROM pairs GROUP BY a) AS s2 ON s1.n = s2.a`,
	`SELECT a FROM big_pairs`,
	`SELECT v.a, n FROM big_pairs AS v JOIN nums ON v.a = n`,
	// Dates (date columns vectorize; interval arithmetic falls back).
	`SELECT id FROM events WHERE d < date '1995-12-31'`,
	`SELECT id FROM events WHERE d >= date '1995-01-01' + interval '1' year`,
	`SELECT extract(year FROM d), count(*) FROM events GROUP BY extract(year FROM d)`,
	`SELECT d - date '1995-01-15' FROM events WHERE id = 2`,
	`SELECT min(d), max(d) FROM events`,
	// Rewrite-rule corpus (rewrite_rules_test.go shapes), with provenance.
	`SELECT PROVENANCE a, b FROM r`,
	`SELECT PROVENANCE b FROM r WHERE a = 1`,
	`SELECT PROVENANCE DISTINCT b FROM r`,
	`SELECT PROVENANCE a FROM r WHERE b LIKE 'y%'`,
	`SELECT PROVENANCE r.a, c FROM r, s WHERE r.a = s.a`,
	`SELECT PROVENANCE b, count(*) FROM r GROUP BY b`,
	`SELECT PROVENANCE sum(a) FROM r`,
	`SELECT PROVENANCE a FROM r UNION SELECT a FROM s`,
	`SELECT PROVENANCE a FROM r INTERSECT SELECT a FROM s`,
	`SELECT PROVENANCE a FROM r EXCEPT SELECT a FROM s`,
	`SELECT PROVENANCE a FROM r EXCEPT ALL SELECT a FROM s`,
	`SELECT PROVENANCE r1.a FROM r AS r1, r AS r2 WHERE r1.a = r2.a`,
	`SELECT PROVENANCE a FROM r WHERE a NOT IN (SELECT a FROM s WHERE c > 150)`,
	`SELECT PROVENANCE a FROM r WHERE a >= (SELECT min(a) FROM s)`,
	`SELECT PROVENANCE a FROM s ORDER BY a LIMIT 2`,
	// ORDER BY / LIMIT / OFFSET shapes exercising VecSort/VecTopN/VecLimit
	// (ties, DESC with NULLs, hidden sort columns, offsets past the end).
	`SELECT a, b FROM pairs ORDER BY a, b DESC`,
	`SELECT n FROM nums ORDER BY n DESC`,
	`SELECT label FROM nums ORDER BY n LIMIT 3`,
	`SELECT a FROM pairs ORDER BY b % 7, a LIMIT 3`,
	`SELECT n FROM nums ORDER BY n LIMIT 2 OFFSET 2`,
	`SELECT n FROM nums ORDER BY n LIMIT 0`,
	`SELECT n FROM nums ORDER BY n OFFSET 99`,
	`SELECT n FROM nums LIMIT 3`,
	`SELECT a FROM pairs ORDER BY a LIMIT 10 OFFSET 1`,
	// DISTINCT shapes exercising VecDistinct.
	`SELECT DISTINCT b FROM pairs ORDER BY b DESC LIMIT 2`,
	`SELECT DISTINCT n, label FROM nums`,
	`SELECT DISTINCT a + 1 FROM pairs`,
	// Set operations exercising VecSetOp (with sorts/limits above).
	`SELECT a FROM pairs INTERSECT ALL SELECT n FROM nums`,
	`SELECT a FROM pairs EXCEPT ALL SELECT n FROM nums`,
	`SELECT a FROM pairs UNION ALL SELECT a FROM pairs ORDER BY 1 LIMIT 5`,
	`SELECT a FROM pairs UNION SELECT n FROM nums ORDER BY 1 DESC`,
	`SELECT n FROM nums UNION ALL SELECT n FROM nums UNION SELECT a FROM pairs`,
	// The same blocking shapes under provenance rewrite: these are the
	// pipelines PR 4 keeps columnar end to end.
	`SELECT PROVENANCE a, b FROM pairs ORDER BY b DESC LIMIT 2`,
	`SELECT PROVENANCE DISTINCT a FROM pairs ORDER BY a`,
	`SELECT PROVENANCE n FROM nums ORDER BY n LIMIT 2 OFFSET 1`,
	`SELECT PROVENANCE a FROM r UNION ALL SELECT a FROM s ORDER BY 1 LIMIT 4`,
	`SELECT PROVENANCE a FROM r INTERSECT ALL SELECT a FROM s`,
	`SELECT PROVENANCE b FROM r EXCEPT ALL SELECT b FROM r WHERE a = 2`,
	`SELECT PROVENANCE x.a FROM (SELECT a FROM r ORDER BY a LIMIT 3) AS x WHERE x.a > 0`,
	`SELECT PROVENANCE b, count(*) FROM r GROUP BY b ORDER BY count(*) DESC, b LIMIT 1`,
}

// TestVectorizedTransparency runs the optimizer-transparency corpus and
// the SQL-logic/rewrite-rule corpus on the default configuration and on
// the optimizer-off, serial, unbudgeted one, and requires both to match
// the result digests the row-at-a-time engine recorded in
// testdata/row_engine_results.tsv.
func TestVectorizedTransparency(t *testing.T) {
	oracle := loadOracle(t)
	def, ref := refPair(t, vecFixture)
	for _, st := range logicOracleStatements() {
		st := st
		t.Run(st.text[:minInt(40, len(st.text))], func(t *testing.T) {
			checkOracle(t, oracle, def, st)
			checkOracle(t, oracle, ref, st)
		})
	}
}

// TestVectorizedNullSafeIncomparableJoin: a null-safe join key over
// incomparable kinds must still match NULL with NULL (regression: the
// vectorized join's never-match shortcut may only apply to
// non-null-safe keys).
func TestVectorizedNullSafeIncomparableJoin(t *testing.T) {
	def, ref := refPair(t, `
		CREATE TABLE ti (i int);
		INSERT INTO ti VALUES (1), (NULL);
		CREATE TABLE ts (s text);
		INSERT INTO ts VALUES ('x'), (NULL);
	`)
	q := `SELECT count(*) FROM ti JOIN ts ON ti.i IS NOT DISTINCT FROM ts.s`
	assertSameResult(t, def, ref, q)
	if got := def.MustQuery(q).Rows[0][0].Int(); got != 1 {
		t.Fatalf("NULL IS NOT DISTINCT FROM NULL must match once, got %d", got)
	}
}

// TestVectorizedTransparencyTPCH runs the generated workloads (random
// SPJ trees, set-operation trees, aggregation chains) and the supported
// TPC-H queries — normal and with provenance — on the default
// configuration and on the optimizer-off, serial, unbudgeted one, and
// requires both to match the row-engine digests (the §V-B generators,
// mirroring the optimizer's property test).
func TestVectorizedTransparencyTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H property test skipped with -short")
	}
	oracle := loadOracle(t)
	def := perm.NewDatabase()
	ref := perm.NewDatabaseWithOptions(refOptions)
	tpch.MustLoad(def, oracleSF, oracleDataSeed)
	tpch.MustLoad(ref, oracleSF, oracleDataSeed)
	maxKey, err := def.TableRowCount("part")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range tpchOracleStatements(maxKey) {
		checkOracle(t, oracle, def, st)
		checkOracle(t, oracle, ref, st)
	}
}

// TestFig10ColumnarEndToEnd asserts the PR 4 acceptance shape on the
// Fig. 10 benchmark queries: Q1/Q3/Q10, normal and with provenance, plan
// with zero BatchToRow demotions except the top-level result sink, and
// at least one provenance join publishes a runtime filter.
func TestFig10ColumnarEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H plan test skipped with -short")
	}
	db := perm.NewDatabase()
	tpch.MustLoad(db, 0.001, 42)
	rng := tpch.NewRand(7)
	sawRuntimeFilter := false
	for _, n := range []int{1, 3, 10} {
		q := tpch.MustQGen(n, rng)
		for _, s := range q.Setup {
			db.MustExec(s)
		}
		for _, v := range []struct{ name, text string }{
			{"norm", q.Text},
			{"prov", q.Provenance().Text},
		} {
			out, err := db.ExplainSQL(v.text)
			if err != nil {
				t.Fatalf("Q%d/%s: %v", n, v.name, err)
			}
			if got := strings.Count(out, "BatchToRow"); got != 1 {
				t.Errorf("Q%d/%s: %d BatchToRow nodes, want exactly the top-level sink:\n%s", n, v.name, got, out)
			}
			if !strings.HasPrefix(out, "BatchToRow") {
				t.Errorf("Q%d/%s: BatchToRow is not the plan root:\n%s", n, v.name, out)
			}
			if v.name == "prov" && strings.Contains(out, "RuntimeFilter") {
				sawRuntimeFilter = true
			}
		}
		for _, s := range q.Teardown {
			db.MustExec(s)
		}
	}
	if !sawRuntimeFilter {
		t.Error("no provenance plan published a runtime filter")
	}
}

// TestVectorizedLikePercentInput: LIKE through the vectorized engine's
// compileLike keeps a pattern % a wildcard where the input has a % at
// the same position (regression: the literal arm matched first).
func TestVectorizedLikePercentInput(t *testing.T) {
	on, off := refPair(t, `
		CREATE TABLE lk (s text, p text);
		INSERT INTO lk VALUES ('%5', '%'), ('a%', 'a%'), ('%', '%%'), ('_x', '_x'), ('5%', '%%5');
	`)
	q := `SELECT s FROM lk WHERE s LIKE p`
	plan, err := on.ExplainSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "VecFilter") {
		t.Fatalf("LIKE filter is not vectorized:\n%s", plan)
	}
	assertSameResult(t, on, off, q)
	var got []string
	for _, row := range on.MustQuery(q).Rows {
		got = append(got, row[0].String())
	}
	if want := "[%5 a% % _x]"; fmt.Sprint(got) != want {
		t.Fatalf("rows = %v, want %s", got, want)
	}
}

// TestVectorizedGoldenExplain pins the EXPLAIN labelling of the batch
// engine: a join plan, a sort plan, and a CASE projection running on the
// fallback expression kernel, each with the batch→row adapter only at
// the root.
func TestVectorizedGoldenExplain(t *testing.T) {
	// Pin the memory budget off: these tests golden-match plan shapes,
	// and a PERM_MEMORY_LIMIT environment override would add spill=on
	// annotations (covered by the dedicated spill tests).
	on := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	on.MustExec(vecFixture)

	cases := []struct {
		name  string
		db    *perm.Database
		query string
		want  string
	}{
		{
			name:  "fully-vectorized",
			db:    on,
			query: `SELECT n, b FROM nums, pairs WHERE n = a AND b > 15`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecProject (2 cols)",
				"    VecHashJoin (inner, 1 keys, RuntimeFilter)",
				"      VecScan (5 rows, RuntimeFilter)",
				"      VecFilter",
				"        VecScan (4 rows)",
				"",
			}, "\n"),
		},
		{
			name: "vectorized-sort",
			db:   on,
			// ORDER BY lowers to the columnar sort; the only BatchToRow
			// left is the top-level result sink.
			query: `SELECT n FROM nums WHERE n > 1 ORDER BY n`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecSort (1 keys)",
				"    VecProject (1 cols)",
				"      VecFilter",
				"        VecScan (5 rows)",
				"",
			}, "\n"),
		},
		{
			name: "fallback-expression",
			db:   on,
			// CASE has no native kernel: the projection evaluates it lane
			// by lane and stays a batch operator.
			query: `SELECT CASE WHEN n < 3 THEN 'lo' ELSE 'hi' END FROM nums WHERE n > 0`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecProject (1 cols)",
				"    VecFilter",
				"      VecScan (5 rows)",
				"",
			}, "\n"),
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := c.db.ExplainSQL(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("plan mismatch for %q:\ngot:\n%swant:\n%s", c.query, got, c.want)
			}
		})
	}
}

// TestNoRowOperators guards the single engine: for every Fig. 10
// statement, the §V-B generated corpora and the SQL-logic corpus, serial,
// with two workers and under a 64 KiB budget, the plan root is the
// batch→row adapter and every operator below it — parallel worker
// replicas included — is a batch operator. It walks the plan tree by
// reflection, independently of the plan package's walkers.
func TestNoRowOperators(t *testing.T) {
	configs := []struct {
		name string
		opts perm.Options
	}{
		{"serial", perm.Options{MemoryLimit: -1, Parallelism: 1}},
		{"workers=2", perm.Options{MemoryLimit: -1, Parallelism: 2}},
		{"64KiB", perm.Options{MemoryLimit: 64 << 10, Parallelism: 1}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			logic := perm.NewDatabaseWithOptions(cfg.opts)
			logic.MustExec(vecFixture)
			for _, st := range logicOracleStatements() {
				assertBatchPlan(t, logic, st)
			}
			db := perm.NewDatabaseWithOptions(cfg.opts)
			tpch.MustLoad(db, oracleSF, oracleDataSeed)
			maxKey, err := db.TableRowCount("part")
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range tpchOracleStatements(maxKey) {
				assertBatchPlan(t, db, st)
			}
		})
	}
}

var vexecPkg = reflect.TypeOf(vexec.RowSource{}).PkgPath()

// assertBatchPlan plans a statement and requires a batch→row adapter
// root over batch operators only.
func assertBatchPlan(t *testing.T, db *perm.Database, st oracleStmt) {
	t.Helper()
	for _, s := range st.setup {
		db.MustExec(s)
	}
	defer func() {
		for _, s := range st.teardown {
			db.MustExec(s)
		}
	}()
	node, err := perm.PlanOf(db, st.text)
	if err != nil {
		if _, qerr := db.Query(st.text); qerr != nil {
			return // the statement is an error case of the corpus
		}
		t.Fatalf("plan %q: %v", st.text, err)
	}
	if _, ok := node.(*vexec.RowSource); !ok {
		t.Errorf("plan root is %T, not the batch→row adapter, for %q", node, st.text)
		return
	}
	var visit func(v reflect.Value)
	visit = func(v reflect.Value) {
		if v.Type().Elem().PkgPath() != vexecPkg {
			t.Errorf("operator %s below the root for %q", v.Type(), st.text)
		}
		s := v.Elem()
		for i := 0; i < s.NumField(); i++ {
			f, ft := s.Field(i), s.Field(i).Type()
			switch {
			case (ft == rowIface || ft == batchIface) && !f.IsNil():
				visit(f.Elem())
			case ft.Kind() == reflect.Slice && (ft.Elem().Implements(rowIface) || ft.Elem().Implements(batchIface)):
				for j := 0; j < f.Len(); j++ {
					visit(f.Index(j))
				}
			}
		}
	}
	visit(reflect.ValueOf(node.(*vexec.RowSource).Input))
}

// TestVectorizedMixedKindSetOps: set-operation branches whose column
// kinds differ produce columns of the common kind, which expressions and
// joins above the set operation read like any other column.
func TestVectorizedMixedKindSetOps(t *testing.T) {
	db := perm.NewDatabase()
	for q, want := range map[string]string{
		`SELECT u.a + 1 FROM (SELECT 1 AS a UNION SELECT 1.5) AS u ORDER BY 1`:                            "[[2] [2.5]]",
		`SELECT u.a, v.b FROM (SELECT 1 AS a UNION ALL SELECT 1.5) AS u, (SELECT 2 AS b) AS v ORDER BY 1`: "[[1 2] [1.5 2]]",
		`SELECT u.x FROM (SELECT NULL AS x UNION ALL SELECT 'a') AS u WHERE u.x IS NOT NULL`:              "[[a]]",
	} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}
