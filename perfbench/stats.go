package main

import "sort"

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// nsToFloat converts a slice of nanosecond samples.
func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

// p99Samples is the smallest sample count for which at least ten samples
// lie beyond the 99th percentile; below it p99 is not reported.
const p99Samples = 1000

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), so
// spreads computed here match the ones an external checker computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}
