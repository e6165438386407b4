// Command benchjson runs the Fig. 10/13/14 benchmark queries under
// paired engine configurations — the logical optimizer on/off, the memory governor spilling (tiny budget)
// vs fully in-memory, and morsel-driven parallel execution vs the
// serial plan — and writes best-of-N wall times to a JSON file. The
// output is the machine-readable perf trajectory checked in per PR
// (BENCH_PR<N>.json), so future changes can diff against an explicit
// baseline instead of prose in CHANGES.md.
//
// Alongside the timings, the report embeds a post-run snapshot of the
// engine metrics (memory grants/denials, morsel dispatch, per-config
// cache traffic and spill volume) and the five worst cardinality
// misestimates the workload produced (per-fingerprint max q-error with
// the offending operator), so a perf diff can also see how the work was
// done — and where the planner's estimates drifted — not just how long
// it took.
//
// Usage:
//
//	go run ./cmd/benchjson -sf 0.002 -runs 10 -parallelism 4 -out BENCH_PR10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"perm"
	"perm/internal/mem"
	"perm/internal/obs"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// Entry is one query's paired measurements (nanoseconds, best of -runs).
type Entry struct {
	Name       string  `json:"name"`
	Rows       int     `json:"rows"`
	BaseNS     int64   `json:"base_ns"`     // all optimizations on, serial plan (workers=1)
	OptOffNS   int64   `json:"opt_off_ns"`  // logical optimizer disabled
	SpillNS    int64   `json:"spill_ns"`    // tiny memory budget (forced spilling)
	ParNS      int64   `json:"par_ns"`      // parallel plan at -parallelism workers
	OptSpeedup float64 `json:"opt_speedup"` // opt_off / base
	SpillCost  float64 `json:"spill_cost"`  // spill / base (spill-to-disk overhead)
	ParSpeedup float64 `json:"par_speedup"` // base / par (parallel speedup vs workers=1)
}

// Report is the file layout.
type Report struct {
	ScaleFactor float64         `json:"scale_factor"`
	Runs        int             `json:"runs"`
	Seed        uint64          `json:"seed"`
	SpillBudget string          `json:"spill_budget"` // the spill config's session budget
	Parallelism int             `json:"parallelism"`  // the parallel config's worker count
	NumCPU      int             `json:"num_cpu"`      // cores available to the measurement
	GoVersion   string          `json:"go_version"`
	Queries     []Entry         `json:"queries"`
	Metrics     MetricsSnapshot `json:"metrics"`     // post-run engine counters
	TopQErrors  []QErrEntry     `json:"top_qerrors"` // 5 worst misestimates, worst first
}

// QErrEntry is one fingerprint's worst cardinality misestimate, as
// accumulated in the base config's statement store from one untimed
// EXPLAIN ANALYZE execution per benchmark query.
type QErrEntry struct {
	Fingerprint string  `json:"fingerprint"`
	Query       string  `json:"query"`
	MaxQErr     float64 `json:"max_qerr"`
	WorstOp     string  `json:"worst_op"`
	WorstEst    float64 `json:"worst_est"`
	WorstAct    int64   `json:"worst_act"`
}

// MetricsSnapshot is the post-run engine observability state: the
// process-global event counters and the per-config cache/memory stats.
type MetricsSnapshot struct {
	MemGrants         int64                    `json:"mem_grants_total"`
	MemDenials        int64                    `json:"mem_denials_total"`
	MorselsDispatched int64                    `json:"parallel_morsels_total"`
	ParallelPlans     int64                    `json:"parallel_plans_total"`
	ParallelWorkers   int64                    `json:"parallel_workers_total"`
	SerialFallbacks   int64                    `json:"parallel_serial_fallbacks_total"`
	Configs           map[string]ConfigMetrics `json:"configs"`
}

// ConfigMetrics is one benchmark configuration's cache and memory
// counters after the full workload ran.
type ConfigMetrics struct {
	CacheHits    uint64 `json:"qcache_hits"`
	CacheMisses  uint64 `json:"qcache_misses"`
	PeakMemory   int64  `json:"mem_peak_bytes"`
	SpilledBytes int64  `json:"mem_spilled_bytes"`
	SpillEvents  uint64 `json:"mem_spill_events"`
}

// snapshotMetrics collects the post-run counters across all configs.
func snapshotMetrics(configs []config) MetricsSnapshot {
	snap := MetricsSnapshot{
		MemGrants:         obs.MemGrants.Load(),
		MemDenials:        obs.MemDenials.Load(),
		MorselsDispatched: obs.MorselsDispatched.Load(),
		ParallelPlans:     obs.ParallelPlans.Load(),
		ParallelWorkers:   obs.ParallelWorkers.Load(),
		SerialFallbacks:   obs.SerialFallbacks.Load(),
		Configs:           make(map[string]ConfigMetrics, len(configs)),
	}
	for _, c := range configs {
		cs := c.db.QueryCacheStats()
		qs := c.db.QueryStats()
		snap.Configs[c.name] = ConfigMetrics{
			CacheHits:    cs.Hits,
			CacheMisses:  cs.Misses,
			PeakMemory:   qs.PeakMemory,
			SpilledBytes: qs.BytesSpilled,
			SpillEvents:  qs.SpillEvents,
		}
	}
	return snap
}

type config struct {
	name string
	db   *perm.Database
}

// bestOfPaired measures one query across all configs with interleaved
// runs — config A, B, C, then A, B, C again — so machine-load drift
// during the measurement hits every config equally and the reported
// ratios stay honest on a shared box. Returns the per-config best and
// the default config's row count.
func bestOfPaired(configs []config, q tpch.Query, runs int) ([]time.Duration, int, error) {
	for _, c := range configs {
		for _, s := range q.Setup {
			if _, err := c.db.Exec(s); err != nil {
				return nil, 0, err
			}
		}
	}
	defer func() {
		for _, c := range configs {
			for _, s := range q.Teardown {
				c.db.Exec(s) //nolint:errcheck — cleanup
			}
		}
	}()
	best := make([]time.Duration, len(configs))
	for i := range best {
		best[i] = time.Duration(1 << 62)
	}
	rows := 0
	for i := 0; i < runs; i++ {
		for ci, c := range configs {
			t0 := time.Now()
			res, err := c.db.Query(q.Text)
			if err != nil {
				return nil, 0, fmt.Errorf("[%s] %v\n%s", c.name, err, q.Text)
			}
			if d := time.Since(t0); d < best[ci] {
				best[ci] = d
			}
			if ci == 0 {
				rows = len(res.Rows)
			}
		}
	}
	// One untimed instrumented run on the base config feeds the
	// per-fingerprint q-error store the report's top_qerrors come from
	// (plain timed runs are never instrumented).
	if _, err := configs[0].db.ExplainAnalyzeSQL(q.Text); err != nil {
		return nil, 0, fmt.Errorf("[%s] analyze: %v", configs[0].name, err)
	}
	return best, rows, nil
}

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-H scale factor")
	runs := flag.Int("runs", 10, "runs per query per config (best is kept)")
	seed := flag.Uint64("seed", 42, "data generator seed")
	out := flag.String("out", "BENCH_PR10.json", "output file")
	budget := flag.String("spill-budget", "4MiB", "session memory budget of the spill config")
	paraN := flag.Int("parallelism", 4, "worker count of the parallel config")
	flag.Parse()

	spillLimit, err := mem.ParseSize(*budget)
	if err != nil {
		fatal(err)
	}
	// Every serial config pins Parallelism to 1 explicitly so the
	// ablation ratios stay serial-vs-serial regardless of the host's
	// core count or $PERM_PARALLELISM; only the parallel config fans out.
	configs := []config{
		{"base", perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, Parallelism: 1})},
		{"opt-off", perm.NewDatabaseWithOptions(perm.Options{DisableOptimizer: true, MemoryLimit: -1, Parallelism: 1})},
		{"spill", perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: spillLimit, Parallelism: 1})},
		{"parallel", perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, Parallelism: *paraN})},
	}
	for _, c := range configs {
		tpch.MustLoad(c.db, *sf, *seed)
	}
	maxKey, err := configs[0].db.TableRowCount("part")
	if err != nil {
		fatal(err)
	}

	// The workload: Fig. 10 TPC-H queries (norm + prov), Fig. 13 SPJ
	// chains and Fig. 14 aggregation chains (prov), matching the ablation
	// benchmarks.
	type job struct {
		name string
		q    tpch.Query
	}
	var jobs []job
	rng := tpch.NewRand(7)
	for _, n := range []int{1, 3, 5, 6, 10, 12, 14, 15} {
		q := tpch.MustQGen(n, rng)
		jobs = append(jobs, job{fmt.Sprintf("Q%d/norm", n), q})
		jobs = append(jobs, job{fmt.Sprintf("Q%d/prov", n), q.Provenance()})
	}
	for _, numSub := range []int{2, 4, 6} {
		spjRng := tpch.NewRand(uint64(numSub))
		q := synth.SPJQuery(spjRng, numSub, maxKey)
		jobs = append(jobs, job{fmt.Sprintf("spj%d/prov", numSub), tpch.Query{Text: injectProv(q)}})
	}
	for _, agg := range []int{3, 6, 10} {
		q := synth.AggChainQuery(agg, maxKey)
		jobs = append(jobs, job{fmt.Sprintf("aggchain%d/prov", agg), tpch.Query{Text: injectProv(q)}})
	}

	rep := Report{ScaleFactor: *sf, Runs: *runs, Seed: *seed, SpillBudget: *budget,
		Parallelism: *paraN, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	for _, j := range jobs {
		best, rows, err := bestOfPaired(configs, j.q, *runs)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", j.name, err))
		}
		ns := [4]int64{best[0].Nanoseconds(), best[1].Nanoseconds(), best[2].Nanoseconds(),
			best[3].Nanoseconds()}
		e := Entry{
			Name: j.name, Rows: rows,
			BaseNS: ns[0], OptOffNS: ns[1], SpillNS: ns[2], ParNS: ns[3],
			OptSpeedup: round2(float64(ns[1]) / float64(ns[0])),
			SpillCost:  round2(float64(ns[2]) / float64(ns[0])),
			ParSpeedup: round2(float64(ns[0]) / float64(ns[3])),
		}
		rep.Queries = append(rep.Queries, e)
		fmt.Printf("%-16s base=%-12v opt-off=%-12v (%.2fx)  spill=%-12v (%.2fx)  par=%-12v (%.2fx)\n",
			j.name, time.Duration(ns[0]), time.Duration(ns[1]), e.OptSpeedup,
			time.Duration(ns[2]), e.SpillCost, time.Duration(ns[3]), e.ParSpeedup)
	}

	rep.Metrics = snapshotMetrics(configs)
	for _, r := range configs[0].db.TopMisestimates(5) {
		rep.TopQErrors = append(rep.TopQErrors, QErrEntry{
			Fingerprint: r.Fingerprint,
			Query:       r.Query,
			MaxQErr:     round2(r.MaxQErr),
			WorstOp:     r.WorstOp,
			WorstEst:    r.WorstEst,
			WorstAct:    r.WorstAct,
		})
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }

// injectProv inserts PROVENANCE after the first SELECT keyword.
func injectProv(q string) string {
	return tpch.Query{Text: q}.Provenance().Text
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
