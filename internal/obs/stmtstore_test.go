package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestStmtStoreObserveAndEvict(t *testing.T) {
	s := NewStmtStore(4, 0)
	for i := 0; i < 3; i++ {
		s.Observe("fp-hot", "select hot", time.Millisecond, 10, false)
	}
	s.Observe("fp-err", "select err", time.Millisecond, 0, true)
	snap := s.Statements()
	if len(snap) != 2 {
		t.Fatalf("Statements len = %d, want 2", len(snap))
	}
	hot := snap[0] // most-called first
	if hot.Fingerprint != "fp-hot" || hot.Calls != 3 || hot.Rows != 30 {
		t.Fatalf("hot stat = %+v", hot)
	}
	if snap[1].Errors != 1 {
		t.Fatalf("error stat = %+v", snap[1])
	}
	// Capacity 4: pushing 4 fresh fingerprints evicts the least recently
	// used entries, never growing past cap.
	for i := 0; i < 4; i++ {
		s.Observe(fmt.Sprintf("fp-new-%d", i), "select new", time.Millisecond, 1, false)
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len after eviction = %d, want 4", got)
	}
	// The most recently touched fingerprints survive.
	found := false
	for _, r := range s.Statements() {
		if r.Fingerprint == "fp-new-3" {
			found = true
		}
	}
	if !found {
		t.Fatal("most recently observed fingerprint was evicted")
	}
}

func TestStmtStoreEstimates(t *testing.T) {
	s := NewStmtStore(0, 0)
	s.ObserveEstimates("fp1", "select 1", []OpEst{
		{Op: "VecScan", EstRows: 10, ActRows: 100},  // qerr 10
		{Op: "VecFilter", EstRows: 50, ActRows: 25}, // qerr 2
	})
	s.ObserveEstimates("fp1", "select 1", []OpEst{
		{Op: "VecScan", EstRows: 10, ActRows: 20}, // qerr 2
	})
	s.ObserveEstimates("fp2", "select 2", nil) // no estimates: not counted
	if s.Len() != 1 {
		t.Fatalf("want 1 fingerprint, got %d", s.Len())
	}
	snap := s.Estimates()
	r := snap[0]
	if r.Analyzed != 2 || r.Ops != 3 {
		t.Fatalf("analyzed/ops = %d/%d, want 2/3", r.Analyzed, r.Ops)
	}
	if r.MaxQErr != 10 || r.WorstOp != "VecScan" || r.WorstEst != 10 || r.WorstAct != 100 {
		t.Fatalf("worst = %v %s est=%v act=%d", r.MaxQErr, r.WorstOp, r.WorstEst, r.WorstAct)
	}
	if r.MeanQErr() != 6 { // (10 + 2) / 2
		t.Fatalf("mean q-error %v, want 6", r.MeanQErr())
	}
}

func TestStmtStoreEvictsLRU(t *testing.T) {
	s := NewStmtStore(2, 0)
	ops := []OpEst{{Op: "VecScan", EstRows: 1, ActRows: 2}}
	s.ObserveEstimates("a", "qa", ops)
	s.ObserveEstimates("b", "qb", ops)
	s.ObserveEstimates("a", "qa", ops) // refresh a: b is now LRU
	s.ObserveEstimates("c", "qc", ops)
	if s.Len() != 2 {
		t.Fatalf("capacity not enforced: %d", s.Len())
	}
	for _, r := range s.Estimates() {
		if r.Fingerprint == "b" {
			t.Fatal("evicted the recently used fingerprint instead of the LRU one")
		}
	}
}

func TestStmtStoreFlips(t *testing.T) {
	s := NewStmtStore(0, 0)
	if _, flipped := s.ObservePlan("fp", "q", 0x111, 1, "opts"); flipped {
		t.Fatal("first compile reported as flip")
	}
	if _, flipped := s.ObservePlan("fp", "q", 0x111, 1, "opts"); flipped {
		t.Fatal("same hash reported as flip")
	}
	s.Observe("fp", "q", 10*time.Millisecond, 1, false)
	s.Observe("fp", "q", 20*time.Millisecond, 1, false)
	old, flipped := s.ObservePlan("fp", "q", 0x222, 2, "opts")
	if !flipped || old != 0x111 {
		t.Fatalf("catalog-bump flip not detected: old=%#x flipped=%v", old, flipped)
	}
	s.Observe("fp", "q", 40*time.Millisecond, 1, false)
	flips := s.Flips()
	if len(flips) != 1 {
		t.Fatalf("want 1 flip, got %d", len(flips))
	}
	f := flips[0]
	if f.Trigger != FlipTriggerCatalog {
		t.Fatalf("trigger %q, want catalog", f.Trigger)
	}
	if f.OldHash != 0x111 || f.NewHash != 0x222 || f.Flips != 1 {
		t.Fatalf("flip record %+v", f)
	}
	if f.BeforeMeanNS != int64(15*time.Millisecond) {
		t.Fatalf("before mean %d", f.BeforeMeanNS)
	}
	if f.AfterMeanNS != int64(40*time.Millisecond) {
		t.Fatalf("after mean %d", f.AfterMeanNS)
	}

	// Same version, changed options → "set"; nothing changed → "replan".
	if _, flipped := s.ObservePlan("fp", "q", 0x333, 2, "opts2"); !flipped {
		t.Fatal("options-change flip not detected")
	}
	if _, flipped := s.ObservePlan("fp", "q", 0x444, 2, "opts2"); !flipped {
		t.Fatal("replan flip not detected")
	}
	flips = s.Flips()
	if len(flips) != 3 || flips[1].Trigger != FlipTriggerSet || flips[2].Trigger != FlipTriggerReplan {
		t.Fatalf("triggers: %+v", flips)
	}
}

func TestStmtStoreRingWraps(t *testing.T) {
	s := NewStmtStore(8, 4)
	for i := 0; i < 10; i++ {
		s.ObservePlan("fp", "q", uint64(i), int64(i), "o")
	}
	if s.FlipCount() != 4 {
		t.Fatalf("ring holds %d flips, want 4", s.FlipCount())
	}
	flips := s.Flips()
	if flips[0].OldHash != 5 || flips[3].NewHash != 9 {
		t.Fatalf("ring kept wrong flips: %+v", flips)
	}
}

// TestStmtStoreEvictionDropsAllProfiles: one record per fingerprint, so
// evicting it drops its statistics, estimates and plan state together —
// and counts as one eviction, not one per profile.
func TestStmtStoreEvictionDropsAllProfiles(t *testing.T) {
	s := NewStmtStore(2, 0)
	s.Observe("a", "qa", time.Millisecond, 1, false)
	s.ObserveEstimates("a", "qa", []OpEst{{Op: "VecScan", EstRows: 1, ActRows: 5}})
	s.ObservePlan("a", "qa", 0x1, 1, "o")
	s.Observe("b", "qb", time.Millisecond, 1, false)
	before := StmtEvictions.Load()
	s.Observe("c", "qc", time.Millisecond, 1, false) // a is least recently used
	if got := StmtEvictions.Load() - before; got != 1 {
		t.Fatalf("evicting one fingerprint ticked perm_stmt_evictions_total %d times, want 1", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	for _, r := range s.Statements() {
		if r.Fingerprint == "a" {
			t.Fatal("evicted fingerprint still in the statements snapshot")
		}
	}
	if len(s.Estimates()) != 0 {
		t.Fatalf("evicted fingerprint's estimates survived: %+v", s.Estimates())
	}
	// Its plan state went too: the next compile, even to another hash,
	// is a first compile, not a flip.
	if _, flipped := s.ObservePlan("a", "qa", 0x2, 1, "o"); flipped {
		t.Fatal("evicted fingerprint's plan hash survived eviction")
	}
}

// TestStmtStoreAnalyzeOnlyNotAStatement: a record fed only by EXPLAIN
// ANALYZE (keyed on the bare statement, never executed under that
// identity) shows in the estimates snapshot but not as a zero-call
// statement.
func TestStmtStoreAnalyzeOnlyNotAStatement(t *testing.T) {
	s := NewStmtStore(0, 0)
	s.ObservePlan("bare", "select 1", 0x1, 1, "o")
	s.ObserveEstimates("bare", "select 1", []OpEst{{Op: "VecScan", EstRows: 3, ActRows: 3}})
	s.Observe("explain", "explain analyze select 1", time.Millisecond, 1, false)
	stmts := s.Statements()
	if len(stmts) != 1 || stmts[0].Fingerprint != "explain" {
		t.Fatalf("statements snapshot = %+v, want only the executed fingerprint", stmts)
	}
	ests := s.Estimates()
	if len(ests) != 1 || ests[0].Fingerprint != "bare" {
		t.Fatalf("estimates snapshot = %+v, want only the analyzed fingerprint", ests)
	}
}

// TestStmtStoreFlipBaselineIsRecordMean: a flip's before-mean is the
// record's own mean latency at flip time — the same number
// perm_stat_statements shows as mean_ms — not a separate counter.
func TestStmtStoreFlipBaselineIsRecordMean(t *testing.T) {
	s := NewStmtStore(0, 0)
	s.ObservePlan("fp", "q", 0x1, 1, "o")
	for _, d := range []time.Duration{3, 5, 13} {
		s.Observe("fp", "q", d*time.Millisecond, 1, false)
	}
	mean := s.Statements()[0].MeanNS()
	s.ObservePlan("fp", "q", 0x2, 2, "o")
	flips := s.Flips()
	if len(flips) != 1 || flips[0].BeforeMeanNS != mean {
		t.Fatalf("flips = %+v, want one with BeforeMeanNS = %d", flips, mean)
	}
	if flips[0].AfterMeanNS != 0 {
		t.Fatalf("after mean %d before any post-flip execution", flips[0].AfterMeanNS)
	}
}
