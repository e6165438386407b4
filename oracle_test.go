package perm_test

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"perm"
	"perm/internal/sql"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// oraclePath holds the row-at-a-time engine's results for every
// statement the transparency suites run, recorded once as row count plus
// digest (see the file header for the commit and configuration).
const oraclePath = "testdata/row_engine_results.tsv"

// The TPC-H scale, data seed and query-generator seed the oracle was
// recorded at.
const (
	oracleSF        = 0.001
	oracleDataSeed  = 42
	oracleQuerySeed = 7
)

// oracleStmt is one statement of an oracle set, with the DDL that must
// run around it (TPC-H Q15's view).
type oracleStmt struct {
	text            string
	setup, teardown []string
}

// oracleEntry is one recorded result: "error" when the statement failed,
// otherwise the row count and a digest over columns, provenance flags
// and rendered rows, taken in row order ("ordered") when the statement
// has a top-level ORDER BY and over the sorted rows ("bag") otherwise.
type oracleEntry struct {
	rows   int
	mode   string
	digest string
}

func (e oracleEntry) String() string {
	return fmt.Sprintf("%d rows, %s %s", e.rows, e.mode, e.digest)
}

// logicOracleStatements is the optimizer-transparency corpus followed by
// the SQL-logic corpus (whose provenance section is the rewrite-rule
// corpus), all over vecFixture.
func logicOracleStatements() []oracleStmt {
	var out []oracleStmt
	for _, q := range append(append([]string{}, transparencyCorpus...), logicCorpus...) {
		out = append(out, oracleStmt{text: q})
	}
	return out
}

// tpchOracleStatements is the §V-B generated corpus (random SPJ trees,
// set-operation trees and aggregation chains, seeds 1–4, each also with
// provenance) followed by the supported TPC-H queries, normal and with
// provenance, over TPC-H data loaded at oracleSF and oracleDataSeed.
func tpchOracleStatements(maxKey int) []oracleStmt {
	var out []oracleStmt
	for seed := uint64(1); seed <= 4; seed++ {
		rng := tpch.NewRand(seed)
		for _, q := range []string{
			synth.SPJQuery(rng, int(seed)+1, maxKey),
			synth.SetOpQuery(rng, int(seed)+1, maxKey),
			synth.AggChainQuery(int(seed), maxKey),
		} {
			out = append(out, oracleStmt{text: q}, oracleStmt{text: injectProv(q)})
		}
	}
	rng := tpch.NewRand(oracleQuerySeed)
	for _, n := range tpch.SupportedQueries() {
		q := tpch.MustQGen(n, rng)
		for _, text := range []string{q.Text, q.Provenance().Text} {
			out = append(out, oracleStmt{text: text, setup: q.Setup, teardown: q.Teardown})
		}
	}
	return out
}

// runOracle runs one statement with its setup and teardown and digests
// the result.
func runOracle(t testing.TB, db *perm.Database, st oracleStmt) oracleEntry {
	t.Helper()
	for _, s := range st.setup {
		db.MustExec(s)
	}
	res, err := db.Query(st.text)
	for _, s := range st.teardown {
		db.MustExec(s)
	}
	if err != nil {
		return oracleEntry{mode: "error", digest: "-"}
	}
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var b strings.Builder
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			if v.IsNull() {
				b.WriteString("\x00NULL")
			} else {
				b.WriteString(v.String())
			}
		}
		lines[i] = b.String()
	}
	mode := "bag"
	if hasTopLevelOrderBy(st.text) {
		mode = "ordered"
	} else {
		sort.Strings(lines)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%q\n%v\n", res.Columns, res.ProvColumns)
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return oracleEntry{rows: len(res.Rows), mode: mode, digest: fmt.Sprintf("%016x", h.Sum64())}
}

// hasTopLevelOrderBy reports whether a statement orders its final
// result.
func hasTopLevelOrderBy(text string) bool {
	s, err := sql.Parse(text)
	if err != nil {
		return false
	}
	sel, ok := s.(*sql.SelectStmt)
	return ok && len(sel.OrderBy) > 0
}

// loadOracle reads the recorded results, keyed by statement text.
func loadOracle(t testing.TB) map[string]oracleEntry {
	t.Helper()
	f, err := os.Open(oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]oracleEntry)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, "\t", 4)
		if len(f) != 4 {
			t.Fatalf("%s: malformed line %q", oraclePath, line)
		}
		rows, err := strconv.Atoi(f[0])
		if err != nil {
			t.Fatalf("%s: %v", oraclePath, err)
		}
		text, err := strconv.Unquote(f[3])
		if err != nil {
			t.Fatalf("%s: %v", oraclePath, err)
		}
		out[text] = oracleEntry{rows: rows, mode: f[1], digest: f[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkOracle runs a statement and requires the recorded result.
func checkOracle(t *testing.T, oracle map[string]oracleEntry, db *perm.Database, st oracleStmt) {
	t.Helper()
	want, ok := oracle[st.text]
	if !ok {
		t.Fatalf("%s has no entry for %q", oraclePath, st.text)
	}
	if got := runOracle(t, db, st); got != want {
		t.Errorf("result differs from the row-engine oracle for %q:\n got %v\nwant %v", st.text, got, want)
	}
}
