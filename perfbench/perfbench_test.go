package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"perm"
	"perm/internal/tpch"
)

// TestReplayMatchesDatabase checks that the replay pipeline, called one
// layer at a time on the benchmark's own catalog, returns what
// Database.Query returns for all 30 fig10-tpch statements, and that each
// provenance statement satisfies the theorem against its twin.
func TestReplayMatchesDatabase(t *testing.T) {
	const sf = 0.001
	db := perm.NewDatabaseWithOptions(perm.Options{})
	data, err := tpch.Load(db, sf, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	w := fig10Workload(1)
	for _, text := range w.ddl {
		db.MustExec(text)
	}
	r, err := newReplay(data, w.ddl, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.warm) != 30 {
		t.Fatalf("fig10-tpch has %d statements, want 30", len(w.warm))
	}
	for _, s := range w.warm {
		res, err := db.Query(s.text)
		if err != nil {
			t.Fatalf("%v\n%s", err, s.text)
		}
		out, err := r.replay(s.text)
		if err != nil {
			t.Fatalf("replay: %v\n%s", err, s.text)
		}
		if got, raw := digestResult(res), digestRows(res.RawRows()); got != raw {
			t.Errorf("digest of the result in place differs from the digest of its copy:\n%s", s.text)
		} else if !got.equal(out.d, out.ordered) {
			t.Errorf("replay differs from Database.Query (%d vs %d rows):\n%s", out.d.rows, got.rows, s.text)
		}
		if s.twin == "" {
			continue
		}
		norm, err := r.replay(s.twin)
		if err != nil {
			t.Fatalf("replay twin: %v\n%s", err, s.twin)
		}
		if err := checkTheorem(out, norm); err != nil {
			t.Errorf("%v:\n%s", err, s.text)
		}
	}
}

// TestTheoremCatchesWrongProvenance feeds checkTheorem a provenance
// result that lost a tuple.
func TestTheoremCatchesWrongProvenance(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{})
	data, err := tpch.Load(db, 0.001, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplay(data, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := provOf("SELECT n_name FROM nation WHERE n_regionkey = 1")
	prov, err := r.replay(s.text)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := r.replay(s.twin)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTheorem(prov, norm); err != nil {
		t.Fatalf("theorem fails on a correct result: %v", err)
	}
	prov.rows = prov.rows[1:]
	if checkTheorem(prov, norm) == nil {
		t.Fatal("theorem holds on a provenance result missing a tuple")
	}
}

// TestGeneratorsDeterministic checks that every workload's statement
// streams depend on the seed and nothing else.
func TestGeneratorsDeterministic(t *testing.T) {
	info := infoOf(tpch.Generate(scaleFactor, dataSeed))
	take := func(name string, seed uint64, c, n int) []stmt {
		w, err := newWorkload(name, seed, info)
		if err != nil {
			t.Fatal(err)
		}
		next := w.stream(c)
		out := make([]stmt, n)
		for i := range out {
			out[i] = next()
		}
		return append(out, w.warm...)
	}
	for _, name := range workloadNames {
		for c := 0; c < 2; c++ {
			a, b := take(name, 7, c, 200), take(name, 7, c, 200)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s client %d: statement %d differs between two streams of seed 7", name, c, i)
				}
			}
			other := take(name, 8, c, 200)
			same := true
			for i := range a {
				same = same && a[i] == other[i]
			}
			if same {
				t.Errorf("%s client %d: seeds 7 and 8 give the same stream", name, c)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit, and that
// BENCHMARK.json lists exactly the metrics the benchmark prints.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("bad metric name %q", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: bad unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, bench.EndToEnd)
	same("per_layer", perLayer, bench.PerLayer)
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bench.Workloads), len(workloadNames))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7}, [3]float64{1, 7, 10}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		old, new    []float64
		lowerBetter bool
		want        string
	}{
		{"same", steady, steady, true, "unchanged"},
		{"slower latency", steady, scale(steady, 1.3), true, "worse"},
		{"faster latency", steady, scale(steady, 0.7), true, "better"},
		{"higher throughput", steady, scale(steady, 1.3), false, "better"},
		{"within bound", steady, scale(steady, 1.05), true, "unchanged"},
		{"noisy", noisy, scale(noisy, 1.05), true, "unresolved"},
		{"noisy but dominated", noisy, scale(noisy, 3), true, "worse"},
		{"noisy, dominated, within bound", steady, []float64{103, 125, 104, 120, 105, 106, 107, 118, 104, 105}, true, "unchanged"},
	} {
		if got, _, _ := verdict(c.old, c.new, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(time.Now())
	tr.begin("root")
	tr.begin("a")
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.begin("b")
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	self := selfTimes(tr.spans)
	root := tr.spans[0]
	if got, want := self[0], root.end-root.start-(tr.spans[1].end-tr.spans[1].start)-(tr.spans[2].end-tr.spans[2].start); got != want {
		t.Errorf("root self time %d, want %d", got, want)
	}
	if tr.spans[1].parent != 0 || tr.spans[2].parent != 0 {
		t.Errorf("children not parented to root: %+v", tr.spans)
	}
}
