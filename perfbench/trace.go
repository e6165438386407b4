package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's base
	parent     int32 // index of the enclosing span, -1 for a root
	stmt       uint64
}

// tracer records spans of one client goroutine in memory. A nil tracer
// records nothing, so untraced code paths share the traced ones.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	stmt  uint64
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.base)), parent: parent, stmt: t.stmt})
	t.stack = append(t.stack, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = int64(time.Since(t.base))
	t.stack = t.stack[:n]
}

// selfTimes returns each span's duration minus the time its child spans
// cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(spans, children[i])
	}
	return self
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, idx []int32) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for i, j := range idx {
		iv[i] = [2]int64{spans[j].start, spans[j].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// spanIndex groups self times by span name and by statement.
type spanIndex struct {
	byName map[string][]int64
	// byStmt maps a statement to its spans' total durations by name.
	byStmt map[uint64]map[string]int64
	// dur holds total (not self) durations by name.
	dur map[string][]int64
}

func indexSpans(all [][]span) spanIndex {
	ix := spanIndex{byName: map[string][]int64{}, byStmt: map[uint64]map[string]int64{}, dur: map[string][]int64{}}
	for _, spans := range all {
		self := selfTimes(spans)
		for i, s := range spans {
			ix.byName[s.name] = append(ix.byName[s.name], self[i])
			ix.dur[s.name] = append(ix.dur[s.name], s.end-s.start)
			m := ix.byStmt[s.stmt]
			if m == nil {
				m = map[string]int64{}
				ix.byStmt[s.stmt] = m
			}
			m[s.name] += s.end - s.start
		}
	}
	return ix
}

// medianSelf is the median self time of the spans with this name.
func (ix spanIndex) medianSelf(name string) float64 {
	return median(nsToFloat(ix.byName[name]))
}

// medianDur is the median total duration of the spans with this name.
func (ix spanIndex) medianDur(name string) float64 {
	return median(nsToFloat(ix.dur[name]))
}

// medianDiff is the median, over statements that have all the named
// spans, of a's duration minus the durations of bs.
func (ix spanIndex) medianDiff(a string, bs ...string) float64 {
	var diffs []float64
next:
	for _, m := range ix.byStmt {
		v, ok := m[a]
		if !ok {
			continue
		}
		d := float64(v)
		for _, b := range bs {
			w, ok := m[b]
			if !ok {
				continue next
			}
			d -= float64(w)
		}
		diffs = append(diffs, d)
	}
	return median(diffs)
}
