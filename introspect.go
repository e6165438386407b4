// Query lifecycle introspection: the engine core shared by every handle
// (query IDs, the span tracer, the active-query registry, per-statement
// statistics), the per-statement bookkeeping that feeds them, live query
// cancellation, and the virtual system tables (perm_stat_activity,
// perm_stat_statements, perm_traces, perm_metrics) that expose it all
// through ordinary SQL.
package perm

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perm/internal/catalog"
	"perm/internal/obs"
	"perm/internal/qcache"
	"perm/internal/types"
)

// engineCore is the introspection state shared by every Database handle
// derived from one NewDatabase call (WithOptions copies the pointer,
// like the catalog and the governor): the query-ID allocator, the span
// tracer and its ring buffer, the active-query registry, per-fingerprint
// statement records, and the lazily built shared metrics registry.
type engineCore struct {
	qid        atomic.Uint64
	sessionSeq atomic.Int64
	tracer     *obs.Tracer
	activity   *obs.Activity
	stmts      *obs.StmtStore

	metricsOnce sync.Once
	metricsReg  *obs.Registry
}

func newEngineCore() *engineCore {
	return &engineCore{
		tracer:   obs.NewTracer(obs.DefaultTraceCapacity),
		activity: obs.NewActivity(),
		stmts:    obs.NewStmtStore(0, 0),
	}
}

// envTraceWarn makes sure a malformed PERM_TRACE_SAMPLE is reported
// exactly once.
var envTraceWarn sync.Once

// effectiveTraceSample resolves the trace sampling rate: an explicit
// positive setting wins (trace every Nth query), negative is explicitly
// off, and 0 defers to the PERM_TRACE_SAMPLE environment variable and
// then to off.
func effectiveTraceSample(opts Options) int {
	switch {
	case opts.TraceSample > 0:
		return opts.TraceSample
	case opts.TraceSample < 0:
		return 0
	}
	if s := os.Getenv("PERM_TRACE_SAMPLE"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			envTraceWarn.Do(func() {
				fmt.Fprintf(os.Stderr, "perm: ignoring invalid PERM_TRACE_SAMPLE: %q\n", s)
			})
			return 0
		}
		return n
	}
	return 0
}

// SessionID returns the engine-unique ID of this handle's session
// (shown in perm_stat_activity).
func (db *Database) SessionID() int64 { return db.sessionID }

// Cancel requests cooperative cancellation of the in-flight query with
// the given ID (any session's). The target observes the flag at its
// next batch boundary and its issuer receives a clean "query cancelled"
// error; other queries are unaffected. Cancel fails when no such query
// is running.
func (db *Database) Cancel(queryID string) error {
	err := db.eng.activity.Cancel(queryID)
	if err == nil {
		obs.Events.Record(obs.EventCancel, queryID, "", "cancellation requested")
	}
	return err
}

// QueryInfo identifies the last statement this handle ran, for
// correlating external telemetry (the slow-query log) with the tracing
// subsystem.
type QueryInfo struct {
	ID    string // engine-unique query ID
	Spans string // one-line phase timing breakdown; "" unless the query was sampled
}

// LastQueryInfo returns the ID (and, when the query was sampled, the
// phase span breakdown) of the most recent statement this handle
// finished.
func (db *Database) LastQueryInfo() QueryInfo {
	if p := db.lastQ.Load(); p != nil {
		return *p
	}
	return QueryInfo{}
}

// ---------------------------------------------------------------------------
// Per-statement lifecycle bookkeeping

// queryRun carries one statement's introspection state through the
// pipeline: its active-query registration, its (possibly nil) trace,
// and the currently open phase span. All methods are nil-receiver safe
// so untracked internal executions pass nil and cost nothing.
type queryRun struct {
	db    *Database
	aq    *obs.ActiveQuery
	trace *obs.Trace
	norm  string
	start time.Time
	span  int
	// timer is the armed statement-timeout deadline (nil when the handle
	// has no timeout configured); finish stops it.
	timer *time.Timer
	// fresh marks that this statement's compiled artifact was built this
	// run (a cache miss): the execution that follows hashes its physical
	// plan into its statement record. Cache hits replay a tree the store
	// has already seen, so hashing them would only re-render plans.
	fresh bool
}

// beginQuery registers a statement with the engine: allocates its query
// ID, fingerprints it, makes it visible in perm_stat_activity and — for
// every traceEvery-th query — opens a lifecycle trace. The caller must
// call finish exactly once.
func (db *Database) beginQuery(text string) *queryRun {
	eng := db.eng
	start := time.Now()
	id := "q" + strconv.FormatUint(eng.qid.Add(1), 10)
	norm := qcache.Normalize(text)
	fp := qcache.FingerprintNormalized(norm)
	budget := db.budget
	aq := &obs.ActiveQuery{
		ID:          id,
		Session:     db.sessionID,
		SQL:         text,
		Fingerprint: fp,
		Start:       start,
		MemStats: func() (int64, int64) {
			s := budget.Stats()
			return s.InUse, s.BytesSpilled
		},
	}
	trace := eng.tracer.Sample(db.traceEvery, id, fp, text, start)
	eng.activity.Register(aq)
	qr := &queryRun{db: db, aq: aq, trace: trace, norm: norm, start: start, span: -1}
	if d := db.stmtTimeout; d > 0 {
		// The deadline rides the cooperative cancellation path: it only
		// flips the query's cancel flag, which executors observe at the
		// next batch boundary. CancelTimeout reports whether this timer
		// won the race against an explicit CANCEL, so the counter ticks
		// once per statement actually terminated by timeout.
		qr.timer = time.AfterFunc(d, func() {
			if aq.CancelTimeout(d) {
				obs.StatementTimeouts.Inc()
				obs.Events.Record(obs.EventStatementTimeout, aq.ID, aq.Fingerprint,
					"statement timeout after "+d.String())
			}
		})
	}
	return qr
}

// phase publishes the statement's pipeline phase and, when tracing,
// closes the previous phase span and opens the next.
func (qr *queryRun) phase(p obs.Phase) {
	if qr == nil {
		return
	}
	qr.aq.SetPhase(p)
	if qr.trace != nil {
		qr.trace.End(qr.span)
		qr.span = qr.trace.Begin(p.String())
	}
}

// activeQuery returns the registration record (nil for an untracked
// run), for executors that poll cancellation and count progress.
func (qr *queryRun) activeQuery() *obs.ActiveQuery {
	if qr == nil {
		return nil
	}
	return qr.aq
}

// finish completes the statement: deregisters it, accounts it in the
// per-fingerprint statistics, stores the completed trace, and records
// the handle's last-query info for log correlation.
func (qr *queryRun) finish(err error) {
	if qr == nil {
		return
	}
	if qr.timer != nil {
		qr.timer.Stop()
	}
	qr.trace.End(qr.span)
	eng := qr.db.eng
	dur := time.Since(qr.start)
	eng.activity.Deregister(qr.aq)
	eng.stmts.Observe(qr.aq.Fingerprint, qr.norm, dur, qr.aq.Rows(), err != nil)
	if qr.trace != nil {
		eng.tracer.Store.Put(qr.trace)
	}
	info := QueryInfo{ID: qr.aq.ID, Spans: qr.trace.PhaseBreakdown()}
	qr.db.lastQ.Store(&info)
}

// ---------------------------------------------------------------------------
// Virtual system tables

// registerSystemViews registers the introspection relations on the
// catalog. They are ordinary relations to the analyzer and planner —
// joins, aggregates and provenance rewrites compose over them — except
// their rows are generated from live engine state at execution time.
func registerSystemViews(db *Database) {
	eng := db.eng
	mustRegister := func(v *catalog.VirtualTable) {
		if err := db.cat.RegisterVirtual(v); err != nil {
			// Registration happens once, on a fresh catalog, with
			// engine-chosen names; failure is a programming error.
			panic(err)
		}
	}

	mustRegister(&catalog.VirtualTable{
		Name: "perm_stat_activity",
		Cols: []catalog.Column{
			{Name: "query_id", Type: types.KindString},
			{Name: "session_id", Type: types.KindInt},
			{Name: "phase", Type: types.KindString},
			{Name: "query", Type: types.KindString},
			{Name: "fingerprint", Type: types.KindString},
			{Name: "elapsed_ms", Type: types.KindFloat},
			{Name: "rows_emitted", Type: types.KindInt},
			{Name: "morsels_claimed", Type: types.KindInt},
			{Name: "morsels_total", Type: types.KindInt},
			{Name: "mem_reserved_bytes", Type: types.KindInt},
			{Name: "spilled_bytes", Type: types.KindInt},
			{Name: "cancel_requested", Type: types.KindBool},
		},
		Rows: func() []types.Row {
			snap := eng.activity.Snapshot()
			rows := make([]types.Row, 0, len(snap))
			for _, q := range snap {
				claimed, total := q.Morsels()
				var reserved, spilled int64
				if q.MemStats != nil {
					reserved, spilled = q.MemStats()
				}
				rows = append(rows, types.Row{
					types.NewString(q.ID),
					types.NewInt(q.Session),
					types.NewString(q.Phase().String()),
					types.NewString(q.SQL),
					types.NewString(q.Fingerprint),
					types.NewFloat(float64(time.Since(q.Start).Nanoseconds()) / 1e6),
					types.NewInt(q.Rows()),
					types.NewInt(claimed),
					types.NewInt(total),
					types.NewInt(reserved),
					types.NewInt(spilled),
					types.NewBool(q.Cancelled()),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		Name: "perm_stat_statements",
		Cols: []catalog.Column{
			{Name: "fingerprint", Type: types.KindString},
			{Name: "query", Type: types.KindString},
			{Name: "calls", Type: types.KindInt},
			{Name: "errors", Type: types.KindInt},
			{Name: "rows_emitted", Type: types.KindInt},
			{Name: "total_ms", Type: types.KindFloat},
			{Name: "mean_ms", Type: types.KindFloat},
			{Name: "p50_ms", Type: types.KindFloat},
			{Name: "p99_ms", Type: types.KindFloat},
			{Name: "max_ms", Type: types.KindFloat},
		},
		Rows: func() []types.Row {
			snap := eng.stmts.Statements()
			rows := make([]types.Row, 0, len(snap))
			for i := range snap {
				st := &snap[i]
				rows = append(rows, types.Row{
					types.NewString(st.Fingerprint),
					types.NewString(st.Query),
					types.NewInt(st.Calls),
					types.NewInt(st.Errors),
					types.NewInt(st.Rows),
					types.NewFloat(float64(st.TotalNS) / 1e6),
					types.NewFloat(float64(st.MeanNS()) / 1e6),
					types.NewFloat(st.Hist.Quantile(0.50) / 1e6),
					types.NewFloat(st.Hist.Quantile(0.99) / 1e6),
					types.NewFloat(float64(st.MaxNS) / 1e6),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		Name: "perm_traces",
		Cols: []catalog.Column{
			{Name: "query_id", Type: types.KindString},
			{Name: "fingerprint", Type: types.KindString},
			{Name: "query", Type: types.KindString},
			{Name: "span", Type: types.KindString},
			{Name: "depth", Type: types.KindInt},
			{Name: "start_ms", Type: types.KindFloat},
			{Name: "duration_ms", Type: types.KindFloat},
			{Name: "rows_emitted", Type: types.KindInt},
		},
		Rows: func() []types.Row {
			var rows []types.Row
			for _, t := range eng.tracer.Store.Snapshot() {
				for _, sp := range t.Spans {
					rows = append(rows, types.Row{
						types.NewString(t.QueryID),
						types.NewString(t.Fingerprint),
						types.NewString(t.SQL),
						types.NewString(sp.Name),
						types.NewInt(int64(sp.Depth)),
						types.NewFloat(float64(sp.StartNS) / 1e6),
						types.NewFloat(float64(sp.DurNS) / 1e6),
						types.NewInt(sp.Rows),
					})
				}
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		Name: "perm_stat_estimates",
		Cols: []catalog.Column{
			{Name: "fingerprint", Type: types.KindString},
			{Name: "query", Type: types.KindString},
			{Name: "analyzed", Type: types.KindInt},
			{Name: "ops", Type: types.KindInt},
			{Name: "max_qerr", Type: types.KindFloat},
			{Name: "mean_qerr", Type: types.KindFloat},
			{Name: "worst_op", Type: types.KindString},
			{Name: "worst_est", Type: types.KindFloat},
			{Name: "worst_act", Type: types.KindInt},
			{Name: "last_seen_ms", Type: types.KindFloat},
		},
		Rows: func() []types.Row {
			snap := eng.stmts.Estimates()
			rows := make([]types.Row, 0, len(snap))
			for i := range snap {
				r := &snap[i]
				rows = append(rows, types.Row{
					types.NewString(r.Fingerprint),
					types.NewString(r.Query),
					types.NewInt(r.Analyzed),
					types.NewInt(r.Ops),
					types.NewFloat(r.MaxQErr),
					types.NewFloat(r.MeanQErr()),
					types.NewString(r.WorstOp),
					types.NewFloat(r.WorstEst),
					types.NewInt(r.WorstAct),
					types.NewFloat(float64(time.Since(r.LastSeen).Nanoseconds()) / 1e6),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		Name: "perm_stat_plans",
		Cols: []catalog.Column{
			{Name: "fingerprint", Type: types.KindString},
			{Name: "query", Type: types.KindString},
			{Name: "old_plan", Type: types.KindString},
			{Name: "new_plan", Type: types.KindString},
			{Name: "trigger", Type: types.KindString},
			{Name: "flips", Type: types.KindInt},
			{Name: "age_ms", Type: types.KindFloat},
			{Name: "before_mean_ms", Type: types.KindFloat},
			{Name: "after_mean_ms", Type: types.KindFloat},
		},
		Rows: func() []types.Row {
			flips := eng.stmts.Flips()
			rows := make([]types.Row, 0, len(flips))
			for i := range flips {
				f := &flips[i]
				rows = append(rows, types.Row{
					types.NewString(f.Fingerprint),
					types.NewString(f.Query),
					types.NewString(fmt.Sprintf("%016x", f.OldHash)),
					types.NewString(fmt.Sprintf("%016x", f.NewHash)),
					types.NewString(f.Trigger),
					types.NewInt(f.Flips),
					types.NewFloat(float64(time.Since(f.At).Nanoseconds()) / 1e6),
					types.NewFloat(float64(f.BeforeMeanNS) / 1e6),
					types.NewFloat(float64(f.AfterMeanNS) / 1e6),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		Name: "perm_events",
		Cols: []catalog.Column{
			{Name: "seq", Type: types.KindInt},
			{Name: "age_ms", Type: types.KindFloat},
			{Name: "kind", Type: types.KindString},
			{Name: "query_id", Type: types.KindString},
			{Name: "fingerprint", Type: types.KindString},
			{Name: "detail", Type: types.KindString},
		},
		Rows: func() []types.Row {
			snap := obs.Events.Snapshot()
			rows := make([]types.Row, 0, len(snap))
			for i := range snap {
				e := &snap[i]
				rows = append(rows, types.Row{
					types.NewInt(e.Seq),
					types.NewFloat(float64(time.Since(e.At).Nanoseconds()) / 1e6),
					types.NewString(e.Kind),
					types.NewString(e.QueryID),
					types.NewString(e.Fingerprint),
					types.NewString(e.Detail),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		Name: "perm_metrics",
		Cols: []catalog.Column{
			{Name: "name", Type: types.KindString},
			{Name: "labels", Type: types.KindString},
			{Name: "value", Type: types.KindFloat},
		},
		Rows: func() []types.Row {
			samples := db.Metrics().Samples()
			rows := make([]types.Row, 0, len(samples))
			for _, s := range samples {
				rows = append(rows, types.Row{
					types.NewString(s.Name),
					types.NewString(s.Labels),
					types.NewFloat(s.Value),
				})
			}
			return rows
		},
	})
}
