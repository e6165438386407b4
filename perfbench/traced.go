package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"perm/internal/types"
	"perm/internal/wire"
)

// wireConn is a connection the benchmark drives with the wire package
// itself, so that it can time encoding, the wait for the server and
// decoding apart.
type wireConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireConn{conn: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

// roundTrip sends one request under a span named name, with child spans
// for sending, waiting and decoding. It returns the response and the
// size of its frame.
func (c *wireConn) roundTrip(req *wire.Request, tr *tracer, name string) (*wire.Response, int, error) {
	tr.begin(name)
	defer tr.end()
	tr.begin("wire.send")
	err := wire.WriteFrame(c.w, req)
	if err == nil {
		err = c.w.Flush()
	}
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("wire.wait")
	body, err := wire.ReadFrame(c.r)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	// Decoding is timed apart from the wait: rebuild the frame and let
	// ReadResponse parse it from memory.
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	tr.begin("wire.decode")
	resp, err := wire.ReadResponse(bytes.NewReader(frame))
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	if !resp.OK {
		return nil, len(frame), fmt.Errorf("%s", resp.Err)
	}
	return resp, len(frame), nil
}

func digestRows(rows [][]types.Value) digest {
	var d digest
	for _, row := range rows {
		d.add(hashRow(row, nil))
	}
	return d
}

// tracedLog is what one client recorded in the traced window.
type tracedLog struct {
	clientLog
	spans      []span
	callNS     []int64 // the workload's own call, reads only
	frameBytes []int64
	rowsOut    int64
	rowOps     int64
	allOps     int64
}

// tracedWindow runs the workload again with the benchmark's spans. Per
// statement it times the workload's own call (Database.Query, or a wire
// round trip when served); for reads it then times a warm in-process
// call and a warm round trip of the same text, re-encodes the response
// with wire.Encode, and replays the statement on its own catalog through
// each layer cold (parse → analyze → provrewrite → optimize → plan →
// execute) and warm (plan → execute).
func tracedWindow(e *env, v *verifier, d time.Duration) ([]*tracedLog, error) {
	if e.srv == nil {
		if err := e.startServer(); err != nil {
			return nil, err
		}
	}
	conns := make([]*wireConn, len(e.streams))
	for c := range conns {
		wc, err := dialWire(e.addr)
		if err != nil {
			return nil, err
		}
		defer wc.conn.Close()
		conns[c] = wc
	}
	base := time.Now()
	deadline := base.Add(d)
	logs := make([]*tracedLog, len(conns))
	var opsMu sync.Mutex
	ops := map[string][2]int{}
	var wg sync.WaitGroup
	for c := range conns {
		log := &tracedLog{}
		logs[c] = log
		wg.Add(1)
		go func(c int, wc *wireConn, next func() stmt) {
			defer wg.Done()
			tr := newTracer(base)
			for seq := uint64(0); time.Now().Before(deadline); seq++ {
				s := next()
				tr.stmt = uint64(c)<<40 | seq
				log.attempted++
				tr.begin("stmt")
				traceOne(e, v, wc, tr, log, s, &opsMu, ops)
				tr.end()
			}
			log.spans = tr.spans
		}(c, conns[c], e.streams[c])
	}
	wg.Wait()
	return logs, nil
}

// traceOne runs one statement of the traced window.
func traceOne(e *env, v *verifier, wc *wireConn, tr *tracer, log *tracedLog, s stmt, opsMu *sync.Mutex, ops map[string][2]int) {
	op := wire.OpQuery
	if s.write {
		op = wire.OpExec
	}
	var got digest
	t0 := time.Now()
	if e.w.served {
		resp, _, err := wc.roundTrip(&wire.Request{Op: op, SQL: s.text}, tr, "server.roundtrip")
		if err != nil {
			log.fail("%v: %s", err, s.text)
			return
		}
		if s.write {
			if resp.Affected != 1 {
				log.fail("write affected %d rows: %s", resp.Affected, s.text)
			}
			return
		}
		got = digestRows(resp.Rows)
	} else {
		tr.begin("perm.query")
		res, err := e.db.Query(s.text)
		tr.end()
		if err != nil {
			log.fail("%v: %s", err, s.text)
			return
		}
		got = digestResult(res)
	}
	log.callNS = append(log.callNS, int64(time.Since(t0)))

	// The warm pair: the same text in-process and over the wire, both
	// served from the compiled-query cache the call above filled.
	tr.begin("perm.query.warm")
	_, err := e.db.Query(s.text)
	tr.end()
	if err != nil {
		log.fail("%v: %s", err, s.text)
		return
	}
	resp, frameLen, err := wc.roundTrip(&wire.Request{Op: wire.OpQuery, SQL: s.text}, tr, "server.roundtrip.warm")
	if err != nil {
		log.fail("%v: %s", err, s.text)
		return
	}
	log.frameBytes = append(log.frameBytes, int64(frameLen))
	// wire.Encode on the response is the server's encoding step, on the
	// same payload.
	tr.begin("wire.encode")
	_, err = wire.Encode(resp)
	tr.end()
	if err != nil {
		log.fail("encode: %v", err)
	}

	r := v.r
	tr.begin("replay.cold")
	c, err := r.compile(s.text, tr)
	var out outcome
	if err == nil {
		out, err = r.run(c, tr, "plan", "execute")
	}
	tr.end()
	if err != nil {
		log.fail("replay: %v: %s", err, s.text)
		return
	}
	tr.begin("replay.warm")
	_, err = r.run(c, tr, "plan.warm", "execute.warm")
	tr.end()
	if err != nil {
		log.fail("replay: %v: %s", err, s.text)
		return
	}
	log.rowsOut += int64(out.d.rows)

	opsMu.Lock()
	counts, seen := ops[s.text]
	opsMu.Unlock()
	if !seen {
		row, all := rowOps(out.node)
		counts = [2]int{row, all}
		exp := expect{d: out.d, ordered: out.ordered}
		if s.twin != "" {
			norm, err := r.replay(s.twin)
			if err == nil {
				err = checkTheorem(out, norm)
			}
			if err != nil {
				exp.err = fmt.Errorf("provenance theorem: %w", err)
			}
		}
		v.learn(s, exp)
		opsMu.Lock()
		ops[s.text] = counts
		opsMu.Unlock()
	}
	log.rowOps += int64(counts[0])
	log.allOps += int64(counts[1])
	log.checks = append(log.checks, check{s: s, d: got})
}

// writeProbe times the storage layer: it inserts and deletes a
// benchmark-owned orders row on the replay catalog, each followed by a
// point lookup on orders whose execution must rebuild the table's
// columnar snapshot.
func writeProbe(r *replayDB, lookupKey int64, n int) (writeNS, afterNS []int64, err error) {
	t, ok := r.cat.Table("orders")
	if !ok {
		return nil, nil, fmt.Errorf("probe: no orders table")
	}
	c, err := r.compile(fmt.Sprintf(
		"SELECT PROVENANCE o_orderkey, o_totalprice FROM orders WHERE o_orderkey = %d", lookupKey), nil)
	if err != nil {
		return nil, nil, err
	}
	timeRead := func() error {
		t0 := time.Now()
		_, err := r.run(c, nil, "", "")
		afterNS = append(afterNS, int64(time.Since(t0)))
		return err
	}
	for i := 0; i < n; i++ {
		key := int64(ownedKeyBase) + 500_000_000 + int64(i)
		row := types.Row{types.NewInt(key), types.NewInt(-1), types.NewString("O"), types.NewFloat(100),
			types.DateFromYMD(1998, 1, 1), types.NewString("5-LOW"), types.NewString("Clerk#000000000"),
			types.NewInt(0), types.NewString("perfbench")}
		t0 := time.Now()
		err := t.Heap.Insert(row)
		r.cat.Bump()
		writeNS = append(writeNS, int64(time.Since(t0)))
		if err != nil {
			return nil, nil, err
		}
		if err := timeRead(); err != nil {
			return nil, nil, err
		}
		t0 = time.Now()
		deleted, err := t.Heap.DeleteWhere(func(row types.Row) (bool, error) { return row[0].I == key, nil })
		r.cat.Bump()
		writeNS = append(writeNS, int64(time.Since(t0)))
		if err != nil {
			return nil, nil, err
		}
		if deleted != 1 {
			return nil, nil, fmt.Errorf("probe: delete affected %d rows", deleted)
		}
		if err := timeRead(); err != nil {
			return nil, nil, err
		}
	}
	return writeNS, afterNS, nil
}
