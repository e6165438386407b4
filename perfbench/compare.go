package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadResults reads every untraced result file in dir, grouped as
// workload → metric → values.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace != 0 || r.Workload == "" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return out, nil
}

// verdict classifies one (metric, workload) pair. A change counts as
// better or worse only when its median moves by more than the bound.
// When either side's run-to-run spread (interquartile range over median)
// is wider than the bound, the pair is unresolved unless every run of one
// side beats every run of the other; then the median move decides as
// usual.
func verdict(old, new []float64, lowerBetter bool, bound float64) (string, float64, float64) {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(new)
	spread := max(ratio(oq3-oq1, om), ratio(nq3-nq1, nm))
	delta := ratio(nm-om, om)
	gain := -delta
	if !lowerBetter {
		gain = delta
	}
	o, n := sortedCopy(old), sortedCopy(new)
	dominates := func(a, b []float64) bool { // every a beats every b
		if lowerBetter {
			return a[len(a)-1] < b[0]
		}
		return a[0] > b[len(b)-1]
	}
	switch {
	case spread > bound && !dominates(n, o) && !dominates(o, n):
		return "unresolved", delta, spread
	case gain > bound:
		return "better", delta, spread
	case gain < -bound:
		return "worse", delta, spread
	}
	return "unchanged", delta, spread
}

// compareDirs reports every bounded end-to-end metric of every workload
// present on both sides.
func compareDirs(specPath, oldDir, newDir string, w io.Writer) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	old, err := loadResults(oldDir)
	if err != nil {
		return err
	}
	new, err := loadResults(newDir)
	if err != nil {
		return err
	}
	var names []string
	for n := range old {
		if _, ok := new[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "delta", "spread", "bound", "verdict")
	for _, n := range names {
		for _, m := range sp.EndToEnd {
			ov, nv := old[n][m.Name], new[n][m.Name]
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(w, "%-12s %-22s missing on one side\n", n, m.Name)
				continue
			}
			v, delta, spread := verdict(ov, nv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-12s %-22s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s (%d vs %d runs)\n",
				n, m.Name, median(ov), median(nv), 100*delta, 100*spread, 100*m.Bound, v, len(ov), len(nv))
		}
	}
	return nil
}
