package perm_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"perm"
	"perm/internal/session"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// assertIdenticalResult requires byte-identical results — same columns,
// same rows, same order — between two databases. The spill paths
// preserve the exact in-memory output order (external sorts are stable
// across runs, partitioned joins/groupings merge back on sequence
// numbers), so budgeted execution must be indistinguishable, not merely
// multiset-equal.
func assertIdenticalResult(t *testing.T, a, b *perm.Database, query string) {
	t.Helper()
	resA, errA := a.Query(query)
	resB, errB := b.Query(query)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error divergence for %q: budgeted=%v unbudgeted=%v", query, errA, errB)
	}
	if errA != nil {
		return
	}
	if fmt.Sprint(resA.Columns) != fmt.Sprint(resB.Columns) {
		t.Fatalf("columns diverge for %q", query)
	}
	if len(resA.Rows) != len(resB.Rows) {
		t.Fatalf("row count diverges for %q: budgeted=%d unbudgeted=%d", query, len(resA.Rows), len(resB.Rows))
	}
	for i := range resA.Rows {
		for j := range resA.Rows[i] {
			va, vb := resA.Rows[i][j], resB.Rows[i][j]
			if va.String() != vb.String() || va.IsNull() != vb.IsNull() {
				t.Fatalf("row %d col %d diverges for %q: budgeted=%v unbudgeted=%v",
					i, j, query, va, vb)
			}
		}
	}
}

// bigTable builds a ~65k-row table by repeated self-insertion, large
// enough that a tiny budget forces dozens of spill runs (and therefore
// multi-pass merging).
func bigTable(db *perm.Database) {
	db.MustExec(`CREATE TABLE big (a int, b int, s text)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'val-%d')", i, i%7, i%13)
	}
	db.MustExec(sb.String())
	for i := 0; i < 10; i++ { // 64 × 2^10 = 65536 rows
		db.MustExec(fmt.Sprintf(`INSERT INTO big SELECT a + %d, b, s FROM big`, 64<<i))
	}
}

// spillPair returns two databases over the same data: one with the given
// session budget, one explicitly unlimited.
func spillPair(t *testing.T, limit int64, setup func(*perm.Database)) (budgeted, unlimited *perm.Database) {
	t.Helper()
	budgeted = perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: limit, SpillDir: t.TempDir()})
	unlimited = perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	setup(budgeted)
	setup(unlimited)
	return budgeted, unlimited
}

// TestSpillMultiPassTransparency forces multi-pass spilling (a 64 KiB
// budget against ~2.5 MB inputs produces ~40 sorted runs, well past the
// merge fan-in of 8) through every spill-capable operator — VecSort,
// hash aggregation, VecDistinct, VecSetOp, the Grace hash join and the
// row engine's external sort — and requires byte-identical results.
func TestSpillMultiPassTransparency(t *testing.T) {
	budgeted, unlimited := spillPair(t, 64<<10, bigTable)
	queries := []string{
		// External sort (multi-pass merge), stable ties on b.
		`SELECT a, b, s FROM big ORDER BY b, s`,
		`SELECT a FROM big ORDER BY a DESC LIMIT 10`,
		// Hash aggregation: many groups (a % 4096 → 4096 groups of
		// strings/sums), plus global aggregates.
		`SELECT a % 4096, count(*), sum(b), min(s), max(a) FROM big GROUP BY a % 4096`,
		`SELECT count(*), sum(a), avg(b), min(s) FROM big`,
		// DISTINCT over a wide row set.
		`SELECT DISTINCT a % 8192, b FROM big`,
		// Set operations with multiplicities.
		`SELECT a % 1000 FROM big INTERSECT ALL SELECT a % 1500 FROM big`,
		`SELECT a % 997, b FROM big EXCEPT ALL SELECT a % 997, b FROM big WHERE b > 3`,
		`SELECT a % 2000 FROM big UNION SELECT b FROM big`,
		// Grace hash join: self-join on a non-unique key blows up the
		// build side.
		`SELECT count(*), sum(x.a), sum(y.a) FROM big AS x, big AS y WHERE x.a = y.a AND x.b = 1`,
		`SELECT x.a, y.b FROM big AS x JOIN big AS y ON x.a = y.a WHERE x.a < 500 ORDER BY x.a, y.b`,
	}
	for _, q := range queries {
		t.Run(q[:minInt(48, len(q))], func(t *testing.T) {
			assertIdenticalResult(t, budgeted, unlimited, q)
		})
	}
	if st := budgeted.QueryStats(); st.BytesSpilled == 0 || st.SpillEvents == 0 {
		t.Fatalf("64 KiB budget did not spill: %+v", st)
	}
	if st := unlimited.QueryStats(); st.BytesSpilled != 0 {
		t.Fatalf("unlimited database spilled: %+v", st)
	}
	if st := budgeted.QueryStats(); st.MemoryInUse != 0 {
		t.Fatalf("reserved memory leaked after queries: %d bytes", st.MemoryInUse)
	}
}

// TestSpillSortMixedDirections: an ORDER BY mixing descending and
// ascending keys over text and int columns must spill under a 64 KiB
// budget and stay byte-identical to the in-memory sort.
func TestSpillSortMixedDirections(t *testing.T) {
	budgeted := perm.NewDatabaseWithOptions(perm.Options{
		MemoryLimit: 64 << 10, Parallelism: 1, SpillDir: t.TempDir(),
	})
	unlimited := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, Parallelism: 1})
	bigTable(budgeted)
	bigTable(unlimited)
	assertIdenticalResult(t, budgeted, unlimited, `SELECT a, b, s FROM big ORDER BY b DESC, s, a`)
	if st := budgeted.QueryStats(); st.BytesSpilled == 0 {
		t.Fatalf("sort under 64 KiB budget did not spill: %+v", st)
	}
}

// TestSpillExplainAndStats: a limited budget is visible as spill=on in
// EXPLAIN, and executing past it is visible in QueryStats.
func TestSpillExplainAndStats(t *testing.T) {
	budgeted, _ := spillPair(t, 64<<10, bigTable)
	// Parallel plans append ", workers=N" inside the annotation, so match
	// up to the spill tag only.
	for _, c := range []struct{ query, wantOp string }{
		{`SELECT a FROM big ORDER BY a`, "VecSort (1 keys, spill=on"},
		{`SELECT DISTINCT b FROM big`, "VecDistinct (spill=on)"},
		{`SELECT b, count(*) FROM big GROUP BY b`, "VecHashAggregate (1 groups, 1 aggs, spill=on"},
		{`SELECT a FROM big INTERSECT SELECT b FROM big`, "VecSetOp (intersect, all=false, spill=on)"},
		{`SELECT count(*) FROM big AS x, big AS y WHERE x.a = y.a`, "spill=on)"},
	} {
		out, err := budgeted.ExplainSQL(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, c.wantOp) {
			t.Errorf("EXPLAIN %q missing %q:\n%s", c.query, c.wantOp, out)
		}
	}
	// An unlimited handle shows no spill annotations.
	unlimited := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	bigTable(unlimited)
	out, err := unlimited.ExplainSQL(`SELECT a FROM big ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "spill=") {
		t.Errorf("unlimited EXPLAIN carries a spill annotation:\n%s", out)
	}

	before := budgeted.QueryStats()
	budgeted.MustQuery(`SELECT a, s FROM big ORDER BY s, a`)
	after := budgeted.QueryStats()
	if after.BytesSpilled <= before.BytesSpilled {
		t.Fatalf("sort under budget did not report spilled bytes: before=%+v after=%+v", before, after)
	}
	if after.PeakMemory == 0 {
		t.Fatal("peak memory not tracked")
	}
	if after.MemoryInUse != 0 {
		t.Fatalf("reserved memory leaked: %d bytes", after.MemoryInUse)
	}
	// Session-level stats see the same activity on this handle.
	if st := budgeted.SessionQueryStats(); st.BytesSpilled == 0 {
		t.Fatalf("session stats missed the spill: %+v", st)
	}
}

// TestEngineMemoryLimitForcesSpill: the engine-wide governor cap forces
// spilling even when the session itself is unlimited.
func TestEngineMemoryLimitForcesSpill(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, SpillDir: t.TempDir()})
	bigTable(db)
	db.SetEngineMemoryLimit(64 << 10)
	ref := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	bigTable(ref)
	assertIdenticalResult(t, db, ref, `SELECT a, b FROM big ORDER BY b, a`)
	if st := db.QueryStats(); st.BytesSpilled == 0 {
		t.Fatalf("engine cap did not force spilling: %+v", st)
	}
}

// TestSessionSetMemoryLimit drives the budget through the session
// dialect: SET memory_limit changes the handle's budget, off lifts it.
func TestSessionSetMemoryLimit(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, SpillDir: t.TempDir()})
	bigTable(db)
	sess := session.New(db)
	defer sess.Close()
	if _, err := sess.Run(`SET memory_limit = 64KiB`); err != nil {
		t.Fatal(err)
	}
	if got := sess.DB().MemoryLimit(); got != 64<<10 {
		t.Fatalf("session memory limit = %d, want %d", got, 64<<10)
	}
	out, err := sess.Run(`SELECT a FROM big ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Rows) != 65536 {
		t.Fatalf("row count = %d, want 65536", len(out.Result.Rows))
	}
	if st := sess.DB().SessionQueryStats(); st.BytesSpilled == 0 {
		t.Fatalf("budgeted session did not spill: %+v", st)
	}
	if _, err := sess.Run(`SET memory_limit = off`); err != nil {
		t.Fatal(err)
	}
	if got := sess.DB().MemoryLimit(); got != 0 {
		t.Fatalf("memory limit after off = %d, want 0 (unlimited)", got)
	}
	if _, err := sess.Run(`SET memory_limit = nonsense`); err == nil {
		t.Fatal("invalid size must be rejected")
	}
	// SET memory_limit = 0 restores the server-configured default.
	srv := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 12 << 20})
	s2 := session.New(srv)
	defer s2.Close()
	if _, err := s2.Run(`SET memory_limit = 1GiB`); err != nil {
		t.Fatal(err)
	}
	if got := s2.DB().MemoryLimit(); got != 1<<30 {
		t.Fatalf("raised limit = %d, want %d", got, 1<<30)
	}
	if _, err := s2.Run(`SET memory_limit = 0`); err != nil {
		t.Fatal(err)
	}
	if got := s2.DB().MemoryLimit(); got != 12<<20 {
		t.Fatalf("limit after reset = %d, want the server default %d", got, 12<<20)
	}
}

// TestConcurrentSessionBudgets runs a budgeted and an unbudgeted session
// concurrently against one shared database (the permd arrangement): the
// tiny-budget session spills instead of failing and cannot push the
// other session into spilling, and both produce identical results. Run
// under -race in CI.
func TestConcurrentSessionBudgets(t *testing.T) {
	// ORDER BY without LIMIT: a trailing LIMIT would plan the bounded
	// VecTopN heap, which never needs to spill.
	const query = `SELECT a % 9973, count(*), sum(b), min(s) FROM big GROUP BY a % 9973 ORDER BY 1`
	shared := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, SpillDir: t.TempDir()})
	bigTable(shared)
	ref := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	bigTable(ref)
	want := ref.MustQuery(query)

	sessions := make([]*session.Session, 4)
	for i := range sessions {
		sessions[i] = session.New(shared)
		defer sessions[i].Close()
		limit := "off"
		if i%2 == 0 {
			limit = "96KiB"
		}
		if _, err := sessions[i].Run("SET memory_limit = " + limit); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(sessions)*2)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session.Session) {
			defer wg.Done()
			for iter := 0; iter < 2; iter++ {
				out, err := s.Run(query)
				if err != nil {
					errs <- fmt.Errorf("session %d: %v", i, err)
					return
				}
				if len(out.Result.Rows) != len(want.Rows) {
					errs <- fmt.Errorf("session %d: %d rows, want %d", i, len(out.Result.Rows), len(want.Rows))
					return
				}
				for r := range want.Rows {
					for c := range want.Rows[r] {
						if out.Result.Rows[r][c].String() != want.Rows[r][c].String() {
							errs <- fmt.Errorf("session %d: row %d diverges", i, r)
							return
						}
					}
				}
			}
		}(i, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The budgeted sessions spilled; the unlimited ones did not.
	for i, s := range sessions {
		st := s.DB().SessionQueryStats()
		if i%2 == 0 && st.BytesSpilled == 0 {
			t.Errorf("budgeted session %d never spilled: %+v", i, st)
		}
		if i%2 == 1 && st.BytesSpilled != 0 {
			t.Errorf("unbudgeted session %d spilled: %+v", i, st)
		}
	}
	if st := shared.QueryStats(); st.MemoryInUse != 0 {
		t.Errorf("engine-wide reserved memory leaked: %d bytes", st.MemoryInUse)
	}
}

// TestSpillErrorReleasesBudget: a query that fails mid-drain inside a
// budgeted materializing operator must release every reserved byte (a
// leak would ratchet the session toward permanent spilling).
func TestSpillErrorReleasesBudget(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 64 << 10, SpillDir: t.TempDir()})
	bigTable(db)
	db.MustExec(`INSERT INTO big VALUES (99999, 0, 'zero')`)
	for _, q := range []string{
		`SELECT a / b FROM big ORDER BY 1`,                      // row or vec sort drain fails
		`SELECT b, sum(a / b) FROM big GROUP BY b`,              // agg drain fails
		`SELECT DISTINCT a / b FROM big`,                        // distinct drain fails
		`SELECT x.a FROM big AS x JOIN big AS y ON x.a = y.a/0`, // join build fails
	} {
		if _, err := db.Query(q); err == nil {
			t.Fatalf("%q should fail (division by zero)", q)
		}
	}
	if st := db.QueryStats(); st.MemoryInUse != 0 {
		t.Fatalf("failed queries leaked %d reserved bytes: %+v", st.MemoryInUse, st)
	}
}

// TestSessionsBudgetIndependentlyWithoutSet: sessions that never issue
// SET memory_limit still get their own budget (session.New forks a
// handle), so one session exhausting its budget cannot deny grants to
// another.
func TestSessionsBudgetIndependentlyWithoutSet(t *testing.T) {
	shared := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 96 << 10, SpillDir: t.TempDir()})
	bigTable(shared)
	s1, s2 := session.New(shared), session.New(shared)
	defer s1.Close()
	defer s2.Close()
	if _, err := s1.Run(`SELECT a % 9973, count(*) FROM big GROUP BY a % 9973`); err != nil {
		t.Fatal(err)
	}
	if s1.DB().SessionQueryStats().BytesSpilled == 0 {
		t.Fatal("session 1 under a 96 KiB budget did not spill")
	}
	// Session 2 has its own untouched budget: a small query must not
	// spill just because session 1 burned through its own.
	if _, err := s2.Run(`SELECT a FROM big WHERE a < 100 ORDER BY a`); err != nil {
		t.Fatal(err)
	}
	if st := s2.DB().SessionQueryStats(); st.BytesSpilled != 0 {
		t.Fatalf("session 2's small sort spilled (budgets not independent): %+v", st)
	}
}

// TestSpillTransparencyFig10 is the acceptance gate: with a 4 MiB
// budget, the Fig. 10 TPC-H queries Q1/Q3/Q10/Q15 — normal and with
// provenance — complete with results identical to unbudgeted runs.
func TestSpillTransparencyFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H spill test skipped with -short")
	}
	const sf = 0.002
	budgeted := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 4 << 20, SpillDir: t.TempDir()})
	unlimited := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	tpch.MustLoad(budgeted, sf, 42)
	tpch.MustLoad(unlimited, sf, 42)
	rng := tpch.NewRand(7)
	for _, n := range []int{1, 3, 10, 15} {
		q := tpch.MustQGen(n, rng)
		for _, db := range []*perm.Database{budgeted, unlimited} {
			for _, s := range q.Setup {
				db.MustExec(s)
			}
		}
		assertIdenticalResult(t, budgeted, unlimited, q.Text)
		assertIdenticalResult(t, budgeted, unlimited, q.Provenance().Text)
		for _, db := range []*perm.Database{budgeted, unlimited} {
			for _, s := range q.Teardown {
				db.MustExec(s)
			}
		}
	}
	if st := budgeted.QueryStats(); st.MemoryInUse != 0 {
		t.Fatalf("reserved memory leaked: %d bytes", st.MemoryInUse)
	}
}

// TestSpillSynthCorpora runs the generated §V-B workloads — SPJ chains
// (the Fig. 13 shapes), set-operation trees and aggregation chains —
// normal and with provenance under a tight budget, requiring
// byte-identical results.
func TestSpillSynthCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H spill corpus skipped with -short")
	}
	const sf = 0.001
	budgeted := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 48 << 10, SpillDir: t.TempDir()})
	unlimited := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	tpch.MustLoad(budgeted, sf, 42)
	tpch.MustLoad(unlimited, sf, 42)
	maxKey, err := budgeted.TableRowCount("part")
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for seed := uint64(1); seed <= 4; seed++ {
		rng := tpch.NewRand(seed)
		queries = append(queries, synth.SPJQuery(rng, int(seed)+1, maxKey))
		queries = append(queries, synth.SetOpQuery(rng, int(seed)+1, maxKey))
		queries = append(queries, synth.AggChainQuery(int(seed), maxKey))
	}
	for _, q := range queries {
		assertIdenticalResult(t, budgeted, unlimited, q)
		assertIdenticalResult(t, budgeted, unlimited, injectProv(q))
	}
	if st := budgeted.QueryStats(); st.BytesSpilled == 0 {
		t.Fatalf("48 KiB budget over TPC-H corpora never spilled: %+v", st)
	}
}
