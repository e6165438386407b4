// The structural plan hash behind the plan-flip history.
package plan

import (
	"perm/internal/exec"
	"perm/internal/obs"
)

// Hash returns a structural fingerprint of a physical plan: FNV-64a over
// the EXPLAIN rendering with every digit run collapsed to one mask byte,
// then over the plan's scan relation names in traversal order. Masking
// digits keeps the hash stable across pure cardinality drift — scan row
// counts change with every DML, and a LIMIT constant is a literal, not a
// shape — while anything structural (operator choice, join order, build
// side, spill mode, runtime-filter wiring,
// parallel operators) changes the rendered text and therefore the hash.
// Scan names are folded in separately because EXPLAIN renders scans
// anonymously: a build-side swap between two equally-shaped scans moves
// which relation sits where, which only the names can distinguish.
// Computed on fresh compiles only, so the cache-hit hot path never
// renders a plan.
func Hash(n exec.Node) uint64 {
	var text, scans []byte
	walk(n, 0, func(op any, _ *obs.OpStats, depth int) {
		d := describe(op, false)
		text = appendLine(text, depth, d.label, "")
		if d.scan {
			scans = append(append(scans, 0), d.table...)
		}
	})
	h := fnvOffset64
	inDigits := false
	for _, c := range text {
		if c >= '0' && c <= '9' {
			if !inDigits {
				h = fnvByte(h, '#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		h = fnvByte(h, c)
	}
	for _, c := range scans {
		h = fnvByte(h, c)
	}
	return h
}

const (
	fnvOffset64 = uint64(14695981039346656037)
	fnvPrime64  = uint64(1099511628211)
)

func fnvByte(h uint64, c byte) uint64 {
	h ^= uint64(c)
	h *= fnvPrime64
	return h
}
