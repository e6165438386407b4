// Command perfbench is Perm's benchmark. It runs one named workload in a
// closed loop for a fixed time, checks every result against a replay on
// its own catalog and against the provenance theorem, and prints every
// metric by name with its unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics of an untraced run.
// With -trace 1 it runs the workload untraced (for the engine counters)
// and then traced, timing the benchmark's own calls into each layer, and
// reports the per-layer metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload fig10-tpch --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --workload all --seed 1 --seconds 10
//	python3 perfbench/run.py --compare OLD_DIR NEW_DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// Metric names and units. The end-to-end set is what -trace 0 prints
// and BENCHMARK.json bounds; write latency and failed_ratio are printed
// and recorded but not in that set, because every workload must report
// every bounded metric and only served-rw writes.
var (
	endToEnd = []metricDef{
		{"throughput_sps", "1/s"},
		{"read_p50_ms", "ms"},
		{"read_p99_ms", "ms"},
		{"alloc_bytes_per_stmt", "bytes"},
		{"setup_s", "s"},
	}
	perLayer = []metricDef{
		{"sql.parse_ns", "ns"}, {"analyze.ns", "ns"}, {"provrewrite.ns", "ns"}, {"optimize.ns", "ns"},
		{"compile.calls", "count"},
		{"qcache.hits", "count"}, {"qcache.misses", "count"}, {"qcache.invalidations", "count"},
		{"qcache.evictions", "count"}, {"qcache.hit_ratio", "ratio"},
		{"plan.ns", "ns"}, {"plan.warm_ns", "ns"}, {"plan.row_op_share", "ratio"},
		{"plan.parallel_plans", "count"}, {"plan.serial_fallbacks", "count"},
		{"execute.ns", "ns"}, {"execute.rows_out", "rows"}, {"execute.ns_per_row", "ns"},
		{"execute.ns_after_write", "ns"},
		{"mem.peak_bytes", "bytes"}, {"mem.spilled_bytes", "bytes"}, {"mem.denials", "count"},
		{"catalog.version_bumps", "count"}, {"storage.write_ns", "ns"},
		{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"}, {"wire.response_bytes", "bytes"},
		{"server.roundtrip_ns", "ns"}, {"server.residual_ns", "ns"}, {"server.shed", "count"},
		{"obs.residual_ns", "ns"}, {"obs.select1_floor_ns", "ns"}, {"trace.overhead_ratio", "ratio"},
		{"go.gc_cycles", "count"}, {"go.gc_pause_ns", "ns"},
	}
)

type metricDef struct{ name, unit string }

// measured is one metric value with the number of samples behind it
// (0 for counters and derived values).
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run: what the last output line carries, plus the
// recorded properties written to the result file.
type result struct {
	Workload    string              `json:"workload"`
	Seed        uint64              `json:"seed"`
	Trace       int                 `json:"trace"`
	Seconds     int                 `json:"seconds"`
	NProc       int                 `json:"nproc"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	GoVersion   string              `json:"go_version"`
	Commit      string              `json:"commit"`
	Clients     int                 `json:"clients"`
	ScaleFactor float64             `json:"scale_factor"`
	DataSeed    uint64              `json:"data_seed"`
	Properties  properties          `json:"properties"`
	Correct     bool                `json:"correct"`
	Attempted   int                 `json:"attempted"`
	Failed      int                 `json:"failed"`
	Errors      []string            `json:"errors,omitempty"`
	Metrics     map[string]measured `json:"metrics"`
	// Extra holds printed metrics outside the bounded set.
	Extra map[string]measured `json:"extra,omitempty"`
}

// properties are the measured shares of the workload's statements that
// have the properties an optimization might depend on.
type properties struct {
	ProvShare     float64 `json:"prov_share"`      // reads that are SELECT PROVENANCE
	RepeatedShare float64 `json:"repeated_share"`  // compiled-query cache hit ratio
	WriteShare    float64 `json:"write_share"`     // statements that are writes
	DistinctTexts int     `json:"distinct_texts"`  // distinct read texts
	Statements    int     `json:"statements_done"` // statements of the untraced window
}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result directories: -compare OLD NEW")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result directories"))
		}
		if err := compareDirs("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *name) {
		fatal(fmt.Errorf("unknown workload %q (want all, %s)", *name, strings.Join(workloadNames, ", ")))
	}
	all := map[string]measured{}
	allOK, attempted, failed := true, 0, 0
	for _, n := range names {
		res, err := runWorkload(n, *seed, *seconds, *trace)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(".bench_build", "results", fmt.Sprintf("%s-s%d-t%d.json", n, *seed, *trace))
		if err := writeJSON(path, res); err != nil {
			fatal(err)
		}
		report(res)
		for k, m := range res.Metrics {
			all[n+"."+k] = m
		}
		allOK = allOK && res.Correct
		attempted += res.Attempted
		failed += res.Failed
	}
	if len(names) > 1 {
		printLast(allOK, attempted, failed, all)
	}
	if !allOK {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// clientCount is one closed-loop client per core, at most two.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// settleTime is how long each workload runs unmeasured before its
// measured window.
const settleTime = 3 * time.Second

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

func runWorkload(name string, seed uint64, seconds, trace int) (*result, error) {
	clients := clientCount()
	e, setupS, err := setUpMedian(name, seed, clients, setupReps)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	defer e.close()
	replay, err := newReplay(e.data, e.w.ddl, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	v := newVerifier(replay)
	d := time.Duration(seconds) * time.Second

	// A settling window lets the garbage collector's pacing and the
	// engine's lazily built state reach their steady state before the
	// measured window; its results are not measured or digest-checked,
	// but its failures count.
	settle := runWindow(e, settleTime)
	_, _, _, settleFailed := settle.totals()

	before := readCounters(e.db)
	win := runWindow(e, d)
	after := readCounters(e.db)
	props := measureProperties(win, before, after)
	v.verify(win, clients)

	reads, writes, attempted, failed := win.totals()
	failed += settleFailed
	stmts := len(reads) + len(writes)
	res := &result{
		Workload: name, Seed: seed, Trace: trace, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Clients: clients, ScaleFactor: scaleFactor, DataSeed: dataSeed,
		Metrics: map[string]measured{}, Extra: map[string]measured{},
	}
	res.Properties = props
	rs, ws := sortedCopy(nsToFloat(reads)), sortedCopy(nsToFloat(writes))
	e2e := map[string]measured{
		"throughput_sps":       {Value: float64(stmts) / win.elapsed.Seconds(), Unit: "1/s", Samples: stmts},
		"read_p50_ms":          {Value: quantile(rs, 0.5) / 1e6, Unit: "ms", Samples: len(rs)},
		"alloc_bytes_per_stmt": {Value: float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / float64(stmts), Unit: "bytes", Samples: stmts},
		"setup_s":              {Value: setupS, Unit: "s", Samples: setupReps},
	}
	if len(rs) >= p99Samples {
		e2e["read_p99_ms"] = measured{Value: quantile(rs, 0.99) / 1e6, Unit: "ms", Samples: len(rs)}
	}
	if len(ws) > 0 {
		res.Extra["write_p50_ms"] = measured{Value: quantile(ws, 0.5) / 1e6, Unit: "ms", Samples: len(ws)}
	}
	if len(ws) >= p99Samples {
		res.Extra["write_p99_ms"] = measured{Value: quantile(ws, 0.99) / 1e6, Unit: "ms", Samples: len(ws)}
	}

	if trace == 1 {
		layers, tAttempted, tFailed, err := tracedRun(e, v, d, before, after, win, quantile(rs, 0.5))
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
		attempted += tAttempted
		failed += tFailed
		for k, m := range e2e {
			res.Extra[k] = m
		}
	} else {
		res.Metrics = e2e
	}
	res.Extra["failed_ratio"] = measured{Value: float64(failed) / float64(max(attempted, 1)), Unit: "ratio"}
	res.Attempted, res.Failed = attempted, failed
	for _, l := range append(settle.logs, win.logs...) {
		res.Errors = append(res.Errors, l.errs...)
	}
	res.Correct = failed == 0 && attempted > 0
	want := endToEnd
	if trace == 1 {
		want = perLayer
	}
	for _, def := range want {
		if _, ok := res.Metrics[def.name]; !ok {
			return nil, fmt.Errorf("%s: metric %s not measured (too few samples in %d s?)", name, def.name, seconds)
		}
	}
	return res, nil
}

// measureProperties records the shares of provenance reads, repeated
// texts (the cache hit ratio) and writes in the untraced window. It runs
// before verification consumes the window's checks.
func measureProperties(win *window, before, after counters) properties {
	var p properties
	checked, prov, writes := 0, 0, 0
	distinct := map[string]bool{}
	for _, l := range win.logs {
		writes += len(l.writeNS)
		p.Statements += len(l.readNS) + len(l.writeNS)
		for _, ch := range l.checks {
			checked++
			if ch.s.twin != "" {
				prov++
			}
			distinct[ch.s.text] = true
		}
	}
	p.DistinctTexts = len(distinct)
	p.ProvShare = ratio(float64(prov), float64(checked))
	p.WriteShare = ratio(float64(writes), float64(p.Statements))
	hits := float64(after.cache.Hits - before.cache.Hits)
	p.RepeatedShare = ratio(hits, hits+float64(after.cache.Misses-before.cache.Misses))
	return p
}

// tracedRun runs the traced window and the storage probe and derives the
// per-layer metrics. Counters come from the untraced window.
func tracedRun(e *env, v *verifier, d time.Duration, before, after counters, win *window, readP50 float64) (map[string]measured, int, int, error) {
	floor, err := selectFloor(e, 2000)
	if err != nil {
		return nil, 0, 0, err
	}
	logs, err := tracedWindow(e, v, d)
	if err != nil {
		return nil, 0, 0, err
	}
	tw := &window{}
	var spans [][]span
	var callNS, frames []int64
	var rowsOut, rowOps, allOps int64
	for _, l := range logs {
		tw.logs = append(tw.logs, &l.clientLog)
		spans = append(spans, l.spans)
		callNS = append(callNS, l.callNS...)
		frames = append(frames, l.frameBytes...)
		rowsOut += l.rowsOut
		rowOps += l.rowOps
		allOps += l.allOps
	}
	v.verify(tw, len(logs))
	_, _, attempted, failed := tw.totals()
	for _, l := range tw.logs {
		win.logs = append(win.logs, l) // report the traced window's errors too
	}

	probeKey := e.data.Tables["orders"][0][0].I
	writeNS, afterNS, err := writeProbe(v.r, probeKey, 64)
	if err != nil {
		return nil, 0, 0, err
	}

	ix := indexSpans(spans)
	execs := ix.byName["execute"]
	var execSum int64
	for _, ns := range execs {
		execSum += ns
	}
	n := len(execs)
	cache := func(a, b uint64) float64 { return float64(a - b) }
	hits, misses := cache(after.cache.Hits, before.cache.Hits), cache(after.cache.Misses, before.cache.Misses)
	m := map[string]measured{
		"sql.parse_ns":           {Value: ix.medianSelf("sql.parse"), Unit: "ns", Samples: n},
		"analyze.ns":             {Value: ix.medianSelf("analyze"), Unit: "ns", Samples: n},
		"provrewrite.ns":         {Value: ix.medianSelf("provrewrite"), Unit: "ns", Samples: n},
		"optimize.ns":            {Value: ix.medianSelf("optimize"), Unit: "ns", Samples: n},
		"compile.calls":          {Value: misses, Unit: "count"},
		"qcache.hits":            {Value: hits, Unit: "count"},
		"qcache.misses":          {Value: misses, Unit: "count"},
		"qcache.invalidations":   {Value: cache(after.cache.Invalidations, before.cache.Invalidations), Unit: "count"},
		"qcache.evictions":       {Value: cache(after.cache.Evictions, before.cache.Evictions), Unit: "count"},
		"qcache.hit_ratio":       {Value: ratio(hits, hits+misses), Unit: "ratio"},
		"plan.ns":                {Value: ix.medianSelf("plan"), Unit: "ns", Samples: n},
		"plan.warm_ns":           {Value: ix.medianSelf("plan.warm"), Unit: "ns", Samples: n},
		"plan.row_op_share":      {Value: ratio(float64(rowOps), float64(allOps)), Unit: "ratio"},
		"plan.parallel_plans":    {Value: float64(after.parPlans - before.parPlans), Unit: "count"},
		"plan.serial_fallbacks":  {Value: float64(after.fallbacks - before.fallbacks), Unit: "count"},
		"execute.ns":             {Value: ix.medianSelf("execute"), Unit: "ns", Samples: n},
		"execute.rows_out":       {Value: ratio(float64(rowsOut), float64(n)), Unit: "rows"},
		"execute.ns_per_row":     {Value: ratio(float64(execSum), float64(rowsOut)), Unit: "ns"},
		"execute.ns_after_write": {Value: median(nsToFloat(afterNS)), Unit: "ns", Samples: len(afterNS)},
		"mem.peak_bytes":         {Value: float64(after.qs.PeakMemory), Unit: "bytes"},
		"mem.spilled_bytes":      {Value: float64(after.qs.BytesSpilled - before.qs.BytesSpilled), Unit: "bytes"},
		"mem.denials":            {Value: float64(after.memDenials - before.memDenials), Unit: "count"},
		"catalog.version_bumps":  {Value: float64(after.version - before.version), Unit: "count"},
		"storage.write_ns":       {Value: median(nsToFloat(writeNS)), Unit: "ns", Samples: len(writeNS)},
		"wire.encode_ns":         {Value: ix.medianSelf("wire.encode"), Unit: "ns", Samples: len(ix.byName["wire.encode"])},
		"wire.decode_ns":         {Value: ix.medianSelf("wire.decode"), Unit: "ns", Samples: len(ix.byName["wire.decode"])},
		"wire.response_bytes":    {Value: median(nsToFloat(frames)), Unit: "bytes", Samples: len(frames)},
		"server.roundtrip_ns":    {Value: ix.medianDur("server.roundtrip.warm"), Unit: "ns", Samples: len(frames)},
		"server.residual_ns":     {Value: ix.medianDiff("server.roundtrip.warm", "perm.query.warm"), Unit: "ns", Samples: len(frames)},
		"server.shed":            {Value: float64(after.shed - before.shed), Unit: "count"},
		"obs.residual_ns":        {Value: ix.medianDiff("perm.query.warm", "plan.warm", "execute.warm"), Unit: "ns", Samples: n},
		"obs.select1_floor_ns":   {Value: floor, Unit: "ns", Samples: 2000},
		"trace.overhead_ratio":   {Value: ratio(median(nsToFloat(callNS)), readP50), Unit: "ratio", Samples: len(callNS)},
		"go.gc_cycles":           {Value: float64(after.mem.NumGC - before.mem.NumGC), Unit: "count"},
		"go.gc_pause_ns":         {Value: float64(after.mem.PauseTotalNs - before.mem.PauseTotalNs), Unit: "ns"},
	}
	return m, attempted, failed, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selectFloor is the median time of a cached `SELECT 1` in-process.
func selectFloor(e *env, n int) (float64, error) {
	if _, err := e.db.Query("SELECT 1"); err != nil {
		return 0, err
	}
	ns := make([]int64, n)
	for i := range ns {
		t0 := time.Now()
		if _, err := e.db.Query("SELECT 1"); err != nil {
			return 0, err
		}
		ns[i] = int64(time.Since(t0))
	}
	return median(nsToFloat(ns)), nil
}

// commit is the VCS revision the binary was built from, if known.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints every metric with its unit, then the result line.
func report(res *result) {
	print := func(ms map[string]measured) {
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := ms[k]
			fmt.Printf("%-12s %-24s %16.4f %-6s", res.Workload, k, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Printf(" (n=%d)", m.Samples)
			}
			fmt.Println()
		}
	}
	print(res.Metrics)
	print(res.Extra)
	p := res.Properties
	fmt.Printf("%-12s properties: prov_share=%.3f repeated_share=%.3f write_share=%.3f statements=%d seed=%d nproc=%d gomaxprocs=%d %s commit=%s\n",
		res.Workload, p.ProvShare, p.RepeatedShare, p.WriteShare, p.Statements, res.Seed, res.NProc, res.GOMAXPROCS, res.GoVersion, res.Commit)
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", res.Workload, e)
	}
	printLast(res.Correct, res.Attempted, res.Failed, res.Metrics)
}

// printLast prints the one-line JSON result.
func printLast(correct bool, attempted, failed int, metrics map[string]measured) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{correct, attempted, failed, map[string]vu{}}
	for k, m := range metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[k] = vu{v, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
