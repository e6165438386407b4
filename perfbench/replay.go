package main

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"perm"
	"perm/internal/algebra"
	"perm/internal/analyze"
	"perm/internal/catalog"
	"perm/internal/exec"
	"perm/internal/mem"
	"perm/internal/optimize"
	"perm/internal/plan"
	"perm/internal/provrewrite"
	"perm/internal/spill"
	"perm/internal/sql"
	"perm/internal/tpch"
	"perm/internal/types"
	"perm/internal/vexec"
)

// digest summarizes a result: its row count, a hash that depends on row
// order (compared when the query has ORDER BY) and one that does not.
type digest struct {
	rows    int
	ordered uint64
	bag     uint64
}

func (d *digest) add(rowHash uint64) {
	d.rows++
	d.ordered = mix(d.ordered ^ rowHash)
	d.bag += rowHash
}

// equal compares two digests, by order when ordered is set.
func (d digest) equal(o digest, ordered bool) bool {
	if d.rows != o.rows {
		return false
	}
	if ordered {
		return d.ordered == o.ordered
	}
	return d.bag == o.bag
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashValue(h uint64, v *types.Value) uint64 {
	h = mix(h ^ uint64(v.K)<<1)
	if v.Null {
		return mix(h ^ 1)
	}
	switch v.K {
	case types.KindFloat:
		return mix(h ^ math.Float64bits(v.F))
	case types.KindString:
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * 0x100000001b3
		}
		return mix(h)
	case types.KindBool:
		if v.B {
			return mix(h ^ 2)
		}
		return mix(h ^ 3)
	}
	return mix(h ^ uint64(v.I))
}

// hashRow hashes the columns of row selected by keep (all when nil).
func hashRow(row []types.Value, keep []bool) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := range row {
		if keep == nil || keep[i] {
			h = hashValue(h, &row[i])
		}
	}
	return h
}

// perm.Value wraps exactly one types.Value; viewing a result row in
// place lets the closed-loop clients digest every result without
// copying it (Result.RawRows would double the result's allocation).
func init() {
	if unsafe.Sizeof(perm.Value{}) != unsafe.Sizeof(types.Value{}) {
		panic("perfbench: perm.Value no longer wraps exactly one types.Value")
	}
}

func rawRow(row []perm.Value) []types.Value {
	if len(row) == 0 {
		return nil
	}
	return unsafe.Slice((*types.Value)(unsafe.Pointer(&row[0])), len(row))
}

// digestResult digests a result returned by Database.Query or permclient.
func digestResult(res *perm.Result) digest {
	var d digest
	for _, row := range res.Rows {
		d.add(hashRow(rawRow(row), nil))
	}
	return d
}

// replayDB is the benchmark's own catalog, loaded from the same
// generated data, on which it replays statements through the engine's
// layers one call at a time.
type replayDB struct {
	cat    *catalog.Catalog
	budget *mem.Budget
	dir    string
	par    int
}

// newReplay loads the TPC-H schema and data, then runs the DDL (views).
func newReplay(d *tpch.Dataset, ddl []string, par int) (*replayDB, error) {
	cat := catalog.New()
	stmts, err := sql.ParseAll(tpch.SchemaSQL())
	if err != nil {
		return nil, err
	}
	for _, s := range stmts {
		ct, ok := s.(*sql.CreateTableStmt)
		if !ok {
			return nil, fmt.Errorf("replay: unexpected schema statement %T", s)
		}
		cols := make([]catalog.Column, len(ct.Cols))
		for i, c := range ct.Cols {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		t, err := cat.CreateTable(ct.Name, cols, false)
		if err != nil {
			return nil, err
		}
		if err := t.Heap.InsertAll(d.Tables[ct.Name]); err != nil {
			return nil, err
		}
	}
	for _, text := range ddl {
		s, err := sql.Parse(text)
		if err != nil {
			return nil, err
		}
		cv, ok := s.(*sql.CreateViewStmt)
		if !ok {
			return nil, fmt.Errorf("replay: unexpected DDL %T", s)
		}
		if err := cat.CreateView(cv.Name, cv.Query, text, cv.OrReplace); err != nil {
			return nil, err
		}
	}
	return &replayDB{
		cat:    cat,
		budget: mem.NewGovernor(0).Session(0),
		dir:    spill.ResolveDir(""),
		par:    par,
	}, nil
}

// catalogStats feeds the optimizer table sizes, as the engine does.
type catalogStats struct{ cat *catalog.Catalog }

func (s catalogStats) TableRows(name string) (float64, bool) {
	t, ok := s.cat.Table(name)
	if !ok {
		return 0, false
	}
	return t.Stats().Rows, true
}

// compiled is a statement after the compile pipeline.
type compiled struct {
	q       *algebra.Query
	ordered bool // the statement has a top-level ORDER BY
}

// compile runs parse → analyze → provenance rewrite → optimize, each
// inside its own span when tr is not nil.
func (r *replayDB) compile(text string, tr *tracer) (compiled, error) {
	tr.begin("sql.parse")
	s, err := sql.Parse(text)
	tr.end()
	if err != nil {
		return compiled{}, err
	}
	sel, ok := s.(*sql.SelectStmt)
	if !ok {
		return compiled{}, fmt.Errorf("replay: not a SELECT: %T", s)
	}
	tr.begin("analyze")
	q, err := analyze.New(r.cat).AnalyzeSelect(sel)
	tr.end()
	if err != nil {
		return compiled{}, err
	}
	tr.begin("provrewrite")
	q, err = provrewrite.RewriteTree(q, provrewrite.Options{})
	tr.end()
	if err != nil {
		return compiled{}, err
	}
	tr.begin("optimize")
	q = optimize.QueryWithStats(q, catalogStats{r.cat})
	tr.end()
	return compiled{q: q, ordered: len(sel.OrderBy) > 0}, nil
}

// planner mirrors the planner configuration of a default Database.
func (r *replayDB) planner() *plan.Planner {
	return plan.New(r.cat).SetResources(r.budget, r.dir).SetParallelism(r.par)
}

// outcome is one replayed execution.
type outcome struct {
	d       digest
	rows    [][]types.Value
	prov    []bool // provenance columns
	ordered bool
	node    exec.Node
}

// run plans and drains a compiled statement under the given span names.
// Draining boxes every value, as the engine does for its result.
func (r *replayDB) run(c compiled, tr *tracer, planSpan, execSpan string) (outcome, error) {
	tr.begin(planSpan)
	node, err := r.planner().Plan(c.q)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	tr.begin(execSpan)
	rows, err := drain(node)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{rows: rows, prov: make([]bool, len(c.q.Schema())), ordered: c.ordered, node: node}
	for _, pc := range c.q.ProvCols {
		out.prov[pc.Col] = true
	}
	for _, row := range rows {
		out.d.add(hashRow(row, nil))
	}
	return out, nil
}

// drain runs a plan to completion (Open → Next… → Close).
func drain(node exec.Node) ([][]types.Value, error) {
	rs, ok := node.(*vexec.RowSource)
	if !ok {
		rows, err := exec.Collect(node)
		out := make([][]types.Value, len(rows))
		for i, r := range rows {
			out[i] = r
		}
		return out, err
	}
	in := rs.Input
	if err := in.Open(); err != nil {
		return nil, err
	}
	defer in.Close()
	var out [][]types.Value
	for {
		b, err := in.Next()
		if err != nil || b == nil {
			return out, err
		}
		emit := func(lane int) {
			row := make([]types.Value, len(b.Cols))
			for j, c := range b.Cols {
				row[j] = c.Value(lane)
			}
			out = append(out, row)
		}
		if b.Sel != nil {
			for _, lane := range b.Sel {
				emit(lane)
			}
		} else {
			for lane := 0; lane < b.N; lane++ {
				emit(lane)
			}
		}
	}
}

// replay compiles and runs a statement untraced.
func (r *replayDB) replay(text string) (outcome, error) {
	c, err := r.compile(text, nil)
	if err != nil {
		return outcome{}, err
	}
	return r.run(c, nil, "", "")
}

// checkTheorem checks the paper's §III-E theorem Π_T(q+) = Π_T(q): the
// provenance result projected on its original (non-provenance) columns
// equals the normal result as a set, except that an aggregation over
// empty input yields one all-NULL row normally and no row with
// provenance (Fig. 11).
func checkTheorem(prov, norm outcome) error {
	nprov := 0
	for _, p := range prov.prov {
		if p {
			nprov++
		}
	}
	if nprov == 0 {
		return fmt.Errorf("no provenance columns")
	}
	if width := len(prov.prov) - nprov; width != len(norm.prov) {
		return fmt.Errorf("provenance result has %d original columns, normal result %d", width, len(norm.prov))
	}
	keep := make([]bool, len(prov.prov))
	for i, p := range prov.prov {
		keep[i] = !p
	}
	provSet := make(map[uint64]bool)
	for _, row := range prov.rows {
		provSet[hashRow(row, keep)] = true
	}
	normSet := make(map[uint64]bool)
	for _, row := range norm.rows {
		normSet[hashRow(row, nil)] = true
	}
	if len(prov.rows) == 0 && len(norm.rows) == 1 && allNull(norm.rows[0]) {
		return nil
	}
	if len(provSet) != len(normSet) {
		return fmt.Errorf("Π_T(q+) has %d distinct tuples, q has %d", len(provSet), len(normSet))
	}
	for h := range normSet {
		if !provSet[h] {
			return fmt.Errorf("Π_T(q+) misses a tuple of q")
		}
	}
	return nil
}

func allNull(row []types.Value) bool {
	for _, v := range row {
		if !v.Null {
			return false
		}
	}
	return true
}

// rowOps counts the operators of a physical plan and those that run on
// the row engine, from its EXPLAIN text. Vectorized operators print with
// a Vec prefix; Exchange and the BatchToRow adapter are not counted.
func rowOps(node exec.Node) (row, all int) {
	for _, line := range strings.Split(plan.Explain(node), "\n") {
		op := strings.TrimSpace(line)
		if op == "" || strings.HasPrefix(op, "BatchToRow") || strings.HasPrefix(op, "Exchange") {
			continue
		}
		all++
		if !strings.HasPrefix(op, "Vec") {
			row++
		}
	}
	return row, all
}
