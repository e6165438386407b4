// The per-fingerprint statement store — the data behind the
// perm_stat_statements, perm_stat_estimates and perm_stat_plans system
// tables and the per-fingerprint latency histograms on /metrics.
// Statements are keyed by their normalized-text fingerprint (literals
// stripped), so every execution of the same query shape accumulates into
// one record regardless of parameter values. A record carries three
// profiles of its statement:
//
//   - execution: calls, errors, rows and latency, from every completed
//     statement;
//   - estimates: the worst cardinality q-error per EXPLAIN ANALYZE run
//     and which operator produced it;
//   - plan state: the physical plan hash of the last fresh compile, from
//     which plan flips — the same fingerprint compiling to a different
//     plan — are detected and logged into a fixed-size ring with the
//     record's mean latency before and after the flip.
//
// One map, one mutex and one least-recently-used eviction cover all
// three, so evicting a fingerprint drops every profile at once.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// StmtStoreCapacity bounds how many distinct fingerprints the store
// tracks before evicting the least recently used one; FlipRingCapacity
// bounds how many plan flips the history ring retains.
const (
	StmtStoreCapacity = 512
	FlipRingCapacity  = 256
)

// stmtLatencyBounds are the histogram bucket upper bounds for statement
// latencies, in nanoseconds: 100µs .. 10s, roughly ×3 apart.
var stmtLatencyBounds = []int64{
	100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
	30_000_000, 100_000_000, 300_000_000, 1_000_000_000,
	3_000_000_000, 10_000_000_000,
}

// Flip triggers, classified from what changed between the two
// compilations of the same fingerprint.
const (
	FlipTriggerCatalog = "catalog" // catalog version moved (DDL/DML shifted stats)
	FlipTriggerSet     = "set"     // session options (SET) changed the planning environment
	FlipTriggerReplan  = "replan"  // same version and options, plan still differed
)

// OpEst is one operator's (estimate, actual) pair as harvested from an
// instrumented plan.
type OpEst struct {
	Op      string // operator label, e.g. "VecHashJoin"
	EstRows float64
	ActRows int64
}

// StmtRecord is the accumulated profile of one statement fingerprint.
// Fields are guarded by the owning StmtStore's mutex; Hist is internally
// atomic and safe to read after a snapshot.
type StmtRecord struct {
	Fingerprint string
	Query       string // normalized statement text

	// Execution profile (every completed statement).
	Calls   int64
	Errors  int64
	Rows    int64
	TotalNS int64
	MaxNS   int64
	Hist    *Histogram

	// Estimate profile (EXPLAIN ANALYZE runs).
	Analyzed int64   // instrumented executions feeding this record
	Ops      int64   // operator estimates observed in total
	MaxQErr  float64 // worst q-error ever observed
	SumQErr  float64 // sum of per-execution worst q-errors (for the mean)
	WorstOp  string  // operator that produced MaxQErr
	WorstEst float64 // its estimated rows
	WorstAct int64   // its actual rows
	LastSeen time.Time

	// Plan state (fresh compiles).
	planHash   uint64
	catVersion int64
	optsKey    string
	compiles   int64
	flips      int64

	lastUsed int64 // monotonic use tick, for LRU eviction
}

// MeanNS returns the mean latency in nanoseconds.
func (r *StmtRecord) MeanNS() int64 {
	if r.Calls == 0 {
		return 0
	}
	return r.TotalNS / r.Calls
}

// MeanQErr returns the mean of the per-execution worst q-errors.
func (r *StmtRecord) MeanQErr() float64 {
	if r.Analyzed == 0 {
		return 0
	}
	return r.SumQErr / float64(r.Analyzed)
}

// PlanFlip is one recorded plan change. BeforeMeanNS is the
// fingerprint's mean latency over the executions before the flip,
// AfterMeanNS over the executions since (0 when none have completed yet,
// frozen once the fingerprint is evicted).
type PlanFlip struct {
	At           time.Time
	Fingerprint  string
	Query        string
	OldHash      uint64
	NewHash      uint64
	Trigger      string
	Flips        int64 // total flips for this fingerprint, including this one
	BeforeMeanNS int64
	AfterMeanNS  int64
}

// flipRec is the ring's internal record; the after-side latency is
// resolved against the record's live counters at snapshot time.
type flipRec struct {
	PlanFlip
	baseCalls   int64 // rec.Calls at flip time
	baseTotalNS int64 // rec.TotalNS at flip time
	rec         *StmtRecord
}

// StmtStore aggregates per-fingerprint statement records. Updates arrive
// once per statement, per fresh compile or per instrumented run — never
// per row — so a plain mutex around a map is cheap relative to the
// statement it accounts.
type StmtStore struct {
	mu   sync.Mutex
	m    map[string]*StmtRecord
	cap  int
	tick int64

	ring []flipRec
	next int
	n    int
}

// NewStmtStore returns a store tracking up to capacity fingerprints with
// a flip ring of ringCap entries (<= 0: StmtStoreCapacity and
// FlipRingCapacity).
func NewStmtStore(capacity, ringCap int) *StmtStore {
	if capacity <= 0 {
		capacity = StmtStoreCapacity
	}
	if ringCap <= 0 {
		ringCap = FlipRingCapacity
	}
	return &StmtStore{m: make(map[string]*StmtRecord, 64), cap: capacity, ring: make([]flipRec, ringCap)}
}

// recordLocked returns the fingerprint's record, creating it (and
// evicting to make room) when absent, and marks it most recently used.
func (s *StmtStore) recordLocked(fingerprint, normalized string) *StmtRecord {
	r, ok := s.m[fingerprint]
	if !ok {
		if len(s.m) >= s.cap {
			s.evictLocked()
		}
		r = &StmtRecord{
			Fingerprint: fingerprint,
			Query:       normalized,
			Hist:        NewHistogram(stmtLatencyBounds...),
		}
		s.m[fingerprint] = r
	}
	s.tick++
	r.lastUsed = s.tick
	return r
}

// evictLocked drops the strictly least-recently-used fingerprint (ties —
// only possible among never-again-seen entries — broken by fingerprint
// so eviction is deterministic, not map-iteration-order). A hot
// fingerprint's record therefore survives any amount of one-off neighbor
// churn: only the coldest entry ever leaves. A linear scan over at most
// cap entries, and only on the (rare) insert that crosses the cap — not
// worth an ordered index. Each eviction ticks perm_stmt_evictions_total
// so capacity pressure is visible to operators. Ring entries keep their
// record pointer: a flip's after-latency freezes once its record leaves
// the map.
func (s *StmtStore) evictLocked() {
	var victim string
	var oldest int64 = -1
	for fp, r := range s.m {
		if oldest < 0 || r.lastUsed < oldest || (r.lastUsed == oldest && fp < victim) {
			oldest = r.lastUsed
			victim = fp
		}
	}
	if victim != "" {
		delete(s.m, victim)
		StmtEvictions.Inc()
	}
}

// Observe records one completed execution of the statement with the
// given fingerprint and normalized text.
func (s *StmtStore) Observe(fingerprint, normalized string, dur time.Duration, rows int64, failed bool) {
	ns := dur.Nanoseconds()
	s.mu.Lock()
	r := s.recordLocked(fingerprint, normalized)
	r.Calls++
	if failed {
		r.Errors++
	}
	r.Rows += rows
	r.TotalNS += ns
	if ns > r.MaxNS {
		r.MaxNS = ns
	}
	r.Hist.Observe(ns)
	s.mu.Unlock()
}

// ObserveEstimates folds one instrumented execution's operator estimates
// into the fingerprint's record. Operators without an estimate
// (EstRows == 0) are ignored; an execution where no operator carried an
// estimate is not counted.
func (s *StmtStore) ObserveEstimates(fingerprint, normalized string, ops []OpEst) {
	var worst float64
	var worstOp OpEst
	var seen int64
	for _, o := range ops {
		q := QError(o.EstRows, o.ActRows)
		if q == 0 {
			continue
		}
		seen++
		if q > worst {
			worst = q
			worstOp = o
		}
	}
	if seen == 0 {
		return
	}
	s.mu.Lock()
	r := s.recordLocked(fingerprint, normalized)
	r.Analyzed++
	r.Ops += seen
	r.SumQErr += worst
	if worst > r.MaxQErr {
		r.MaxQErr = worst
		r.WorstOp = worstOp.Op
		r.WorstEst = worstOp.EstRows
		r.WorstAct = worstOp.ActRows
	}
	r.LastSeen = time.Now()
	s.mu.Unlock()
}

// ObservePlan records that fingerprint compiled to the given physical
// plan hash at the given catalog version under the given options key.
// When the fingerprint had previously compiled to a different hash it
// records the flip and returns (previous hash, true); otherwise
// (0, false).
func (s *StmtStore) ObservePlan(fingerprint, normalized string, hash uint64, catVersion int64, optsKey string) (uint64, bool) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recordLocked(fingerprint, normalized)
	old, flipped := r.planHash, r.compiles > 0 && r.planHash != hash
	if flipped {
		r.flips++
		trigger := FlipTriggerReplan
		switch {
		case catVersion != r.catVersion:
			trigger = FlipTriggerCatalog
		case optsKey != r.optsKey:
			trigger = FlipTriggerSet
		}
		s.ring[s.next] = flipRec{
			PlanFlip: PlanFlip{
				At:           now,
				Fingerprint:  fingerprint,
				Query:        r.Query,
				OldHash:      old,
				NewHash:      hash,
				Trigger:      trigger,
				Flips:        r.flips,
				BeforeMeanNS: r.MeanNS(),
			},
			baseCalls:   r.Calls,
			baseTotalNS: r.TotalNS,
			rec:         r,
		}
		s.next = (s.next + 1) % len(s.ring)
		if s.n < len(s.ring) {
			s.n++
		}
	}
	r.planHash = hash
	r.catVersion = catVersion
	r.optsKey = optsKey
	r.compiles++
	if !flipped {
		return 0, false
	}
	return old, true
}

// Len reports how many fingerprints are tracked.
func (s *StmtStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// snapshot copies every record whose key is positive, largest key first
// (ties broken by fingerprint for stable output). The Hist pointer is
// shared — histograms are internally atomic and append-only.
func (s *StmtStore) snapshot(key func(*StmtRecord) float64) []StmtRecord {
	s.mu.Lock()
	out := make([]StmtRecord, 0, len(s.m))
	for _, r := range s.m {
		if key(r) > 0 {
			out = append(out, *r)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if ki, kj := key(&out[i]), key(&out[j]); ki != kj {
			return ki > kj
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Statements returns copies of every record that has completed at least
// one execution, most-called first. Records fed only by EXPLAIN ANALYZE
// under the bare statement's identity are left out.
func (s *StmtStore) Statements() []StmtRecord {
	return s.snapshot(func(r *StmtRecord) float64 { return float64(r.Calls) })
}

// Estimates returns copies of every record with at least one analyzed
// execution, worst q-error first (an analyzed record's q-error is at
// least 1, an unanalyzed one's 0).
func (s *StmtStore) Estimates() []StmtRecord {
	return s.snapshot(func(r *StmtRecord) float64 { return r.MaxQErr })
}

// Flips returns the recorded plan flips, oldest first, with the
// after-flip latency mean resolved against each flip's record.
func (s *StmtStore) Flips() []PlanFlip {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PlanFlip, 0, s.n)
	for i := 0; i < s.n; i++ {
		f := &s.ring[(s.next-s.n+i+len(s.ring))%len(s.ring)]
		pf := f.PlanFlip
		if calls := f.rec.Calls - f.baseCalls; calls > 0 {
			pf.AfterMeanNS = (f.rec.TotalNS - f.baseTotalNS) / calls
		}
		out = append(out, pf)
	}
	return out
}

// FlipCount reports how many flips are currently retained in the ring.
func (s *StmtStore) FlipCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// WritePrometheus renders the per-fingerprint latency histograms as the
// perm_stmt_seconds family, one label set per executed fingerprint.
// Registered as a Registry.RawCollector because the label cardinality
// grows with the workload.
func (s *StmtStore) WritePrometheus(w io.Writer) error {
	snap := s.Statements()
	if len(snap) == 0 {
		return nil
	}
	if _, err := fmt.Fprint(w, "# HELP perm_stmt_seconds Statement latency by fingerprint.\n# TYPE perm_stmt_seconds histogram\n"); err != nil {
		return err
	}
	for i := range snap {
		r := &snap[i]
		h := r.Hist
		cum := int64(0)
		for bi, b := range h.bounds {
			cum += h.buckets[bi].Load()
			if _, err := fmt.Fprintf(w, "perm_stmt_seconds_bucket{fingerprint=%q,le=%q} %d\n",
				r.Fingerprint, formatFloat(float64(b)/1e9), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "perm_stmt_seconds_bucket{fingerprint=%q,le=\"+Inf\"} %d\n", r.Fingerprint, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "perm_stmt_seconds_sum{fingerprint=%q} %s\n",
			r.Fingerprint, formatFloat(float64(h.Sum())*1e-9)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "perm_stmt_seconds_count{fingerprint=%q} %d\n", r.Fingerprint, h.Count()); err != nil {
			return err
		}
	}
	return nil
}
