package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"perm"
	"perm/internal/obs"
	"perm/internal/server"
	"perm/internal/tpch"
	"perm/permclient"
)

// executor is how a client sends statements: straight into the
// Database, or through a permclient connection.
type executor interface {
	query(text string) (*perm.Result, error)
	exec(text string) (int, error)
}

type dbExec struct{ db *perm.Database }

func (e dbExec) query(text string) (*perm.Result, error) { return e.db.Query(text) }
func (e dbExec) exec(text string) (int, error)           { return e.db.Exec(text) }

type clientExec struct{ c *permclient.Client }

func (e clientExec) query(text string) (*perm.Result, error) { return e.c.Query(text) }
func (e clientExec) exec(text string) (int, error) {
	_, n, err := e.c.Exec(text)
	return n, err
}

// env is one set-up workload: a loaded database, the statement streams
// of its clients and, when served or traced, a loopback server.
type env struct {
	w       *workload
	db      *perm.Database
	data    *tpch.Dataset
	streams []func() stmt
	execs   []executor

	srv       *server.Server
	addr      string
	serveDone chan error
	conns     []*permclient.Client
}

// setUp builds the workload's database from scratch: data generation,
// load, DDL, server start and client connections when served, and one
// warm-up pass of the workload's statements.
func setUp(name string, seed uint64, clients int) (*env, error) {
	db := perm.NewDatabaseWithOptions(perm.Options{})
	data, err := tpch.Load(db, scaleFactor, dataSeed)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed, infoOf(data))
	if err != nil {
		return nil, err
	}
	for _, text := range w.ddl {
		if _, err := db.Exec(text); err != nil {
			return nil, fmt.Errorf("set-up DDL: %w", err)
		}
	}
	e := &env{w: w, db: db, data: data}
	for c := 0; c < clients; c++ {
		e.streams = append(e.streams, w.stream(c))
	}
	if w.served {
		if err := e.startServer(); err != nil {
			return nil, err
		}
		for c := 0; c < clients; c++ {
			cl, err := permclient.Dial(e.addr)
			if err != nil {
				e.close()
				return nil, err
			}
			e.conns = append(e.conns, cl)
			e.execs = append(e.execs, clientExec{cl})
		}
	} else {
		for c := 0; c < clients; c++ {
			e.execs = append(e.execs, dbExec{db})
		}
	}
	for _, s := range w.warm {
		if _, err := e.execs[0].query(s.text); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w\n%s", err, s.text)
		}
	}
	return e, nil
}

// startServer serves the env's database on a loopback port with the
// server's default settings.
func (e *env) startServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(e.db, 0)
	e.addr = ln.Addr().String()
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()
	return nil
}

// close disconnects the clients and stops the server, waiting until it
// has ended.
func (e *env) close() {
	for _, c := range e.conns {
		c.Close() //nolint:errcheck // the server drops the session either way
	}
	e.conns = nil
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.srv.Shutdown(ctx) //nolint:errcheck // Serve's result below is what matters
		cancel()
		<-e.serveDone
		e.srv = nil
	}
}

// setUpMedian sets the workload up reps times and keeps the last env;
// set-up time is the median of the reps.
func setUpMedian(name string, seed uint64, clients, reps int) (*env, float64, error) {
	var times []float64
	var e *env
	for i := 0; i < reps; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		e, err = setUp(name, seed, clients)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

// check is one read whose result is verified after the window.
type check struct {
	s stmt
	d digest
}

// clientLog is what one closed-loop client recorded in a window.
type clientLog struct {
	readNS, writeNS []int64
	checks          []check
	attempted       int
	failed          int
	errs            []string
	last            time.Time
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 5 {
		msg := strings.Join(strings.Fields(fmt.Sprintf(format, args...)), " ")
		if len(msg) > 300 {
			msg = msg[:300] + "..."
		}
		l.errs = append(l.errs, msg)
	}
}

// window is one closed-loop measurement: every client sends its next
// statement only after the previous one has returned.
type window struct {
	logs    []*clientLog
	elapsed time.Duration
}

func (w *window) totals() (reads, writes []int64, attempted, failed int) {
	for _, l := range w.logs {
		reads = append(reads, l.readNS...)
		writes = append(writes, l.writeNS...)
		attempted += l.attempted
		failed += l.failed
	}
	return
}

// runWindow drives every client until the deadline. A statement started
// before the deadline is completed and counted; the window ends when the
// last client returns.
func runWindow(e *env, d time.Duration) *window {
	start := time.Now()
	deadline := start.Add(d)
	w := &window{logs: make([]*clientLog, len(e.execs))}
	var wg sync.WaitGroup
	for c := range e.execs {
		log := &clientLog{}
		w.logs[c] = log
		wg.Add(1)
		go func(ex executor, next func() stmt) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := next()
				log.attempted++
				t0 := time.Now()
				if s.write {
					n, err := ex.exec(s.text)
					log.writeNS = append(log.writeNS, int64(time.Since(t0)))
					if err != nil {
						log.fail("%v: %s", err, s.text)
					} else if n != 1 {
						log.fail("write affected %d rows: %s", n, s.text)
					}
					continue
				}
				res, err := ex.query(s.text)
				log.readNS = append(log.readNS, int64(time.Since(t0)))
				if err != nil {
					log.fail("%v: %s", err, s.text)
					continue
				}
				log.checks = append(log.checks, check{s: s, d: digestResult(res)})
			}
			log.last = time.Now()
		}(e.execs[c], e.streams[c])
	}
	wg.Wait()
	for _, l := range w.logs {
		if el := l.last.Sub(start); el > w.elapsed {
			w.elapsed = el
		}
	}
	return w
}

// expect is the replayed outcome of one statement text.
type expect struct {
	d       digest
	ordered bool
	err     error
}

// verifier replays each distinct read text once on the benchmark's own
// catalog, checks the provenance theorem against its twin, and compares
// every recorded result with the replay.
type verifier struct {
	r    *replayDB
	mu   sync.Mutex
	want map[string]expect
}

func newVerifier(r *replayDB) *verifier { return &verifier{r: r, want: map[string]expect{}} }

func (v *verifier) expectOf(s stmt) expect {
	out, err := v.r.replay(s.text)
	if err != nil {
		return expect{err: fmt.Errorf("replay: %w", err)}
	}
	e := expect{d: out.d, ordered: out.ordered}
	if s.twin != "" {
		norm, err := v.r.replay(s.twin)
		if err != nil {
			e.err = fmt.Errorf("replay of normal twin: %w", err)
		} else if err := checkTheorem(out, norm); err != nil {
			e.err = fmt.Errorf("provenance theorem: %w", err)
		}
	}
	return e
}

// learn records an already replayed outcome.
func (v *verifier) learn(s stmt, e expect) {
	v.mu.Lock()
	v.want[s.text] = e
	v.mu.Unlock()
}

// verify checks every recorded read of the window, replaying unseen
// texts on the given number of goroutines.
func (v *verifier) verify(w *window, workers int) {
	var todo []stmt
	seen := map[string]bool{}
	for _, l := range w.logs {
		for _, ch := range l.checks {
			if _, ok := v.want[ch.s.text]; !ok && !seen[ch.s.text] {
				seen[ch.s.text] = true
				todo = append(todo, ch.s)
			}
		}
	}
	jobs := make(chan stmt)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				v.learn(s, v.expectOf(s))
			}
		}()
	}
	for _, s := range todo {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	for _, l := range w.logs {
		for _, ch := range l.checks {
			e := v.want[ch.s.text]
			switch {
			case e.err != nil:
				l.fail("%v: %s", e.err, ch.s.text)
			case !e.d.equal(ch.d, e.ordered):
				l.fail("result differs from replay (%d rows, replay %d): %s", ch.d.rows, e.d.rows, ch.s.text)
			}
		}
		l.checks = nil
	}
}

// counters are the engine's public counters, read around a window.
type counters struct {
	cache      perm.CacheStats
	version    uint64
	qs         perm.QueryStats
	memDenials int64
	parPlans   int64
	fallbacks  int64
	shed       int64
	mem        runtime.MemStats
}

func readCounters(db *perm.Database) counters {
	c := counters{
		cache:      db.QueryCacheStats(),
		version:    db.CatalogVersion(),
		qs:         db.QueryStats(),
		memDenials: obs.MemDenials.Load(),
		parPlans:   obs.ParallelPlans.Load(),
		fallbacks:  obs.SerialFallbacks.Load(),
		shed:       obs.ConnsShed.Load(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}
