// Package wire defines the permd client/server protocol: a simple
// length-prefixed request/response framing with JSON message bodies.
//
// Every message on the connection is one frame:
//
//	uint32 big-endian body length | body (JSON)
//
// The bodies are the JSON encoding/json gives the Request and Response
// structs, byte for byte, but the package encodes and decodes them with
// its own codec (encode.go, decode.go) rather than by reflection.
//
// The client sends a Request and reads exactly one Response; requests on
// one connection are processed in order (pipelining is permitted, the
// server answers in receive order). Result values travel as the engine's
// typed values, so a result round-trips the wire without loss and the
// client can re-render it byte-identically to an embedded Database.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"perm/internal/obs"
	"perm/internal/types"
)

// MaxFrame bounds a single frame body (64 MiB) so a corrupt or malicious
// length prefix cannot make either side allocate unboundedly.
const MaxFrame = 64 << 20

// Request operations.
const (
	OpQuery   = "QUERY"   // run SQL, return rows (SELECT / EXPLAIN)
	OpExec    = "EXEC"    // run DDL/DML (semicolon-separated allowed), return affected count
	OpPrepare = "PREPARE" // compile SQL under Name
	OpExecute = "EXECUTE" // run the statement prepared under Name
	OpExplain = "EXPLAIN" // return the physical plan of SQL as text
	OpSet     = "SET"     // set the session option Name to SQL (option value)
	OpPing    = "PING"    // liveness check

	// OpExplainAnalyze executes SQL under instrumentation and returns the
	// plan annotated with per-operator runtime statistics as text.
	OpExplainAnalyze = "EXPLAIN_ANALYZE"

	// OpCancel requests cooperative cancellation of the in-flight query
	// whose engine query ID (as shown in perm_stat_activity) is in Name.
	// Like PING it is handled out of band — it never waits behind the
	// server's worker slots, so a saturated server can still cancel.
	OpCancel = "CANCEL"
)

// Request is one client command.
type Request struct {
	Op   string `json:"op"`
	SQL  string `json:"sql,omitempty"`  // statement text (QUERY/EXEC/PREPARE/EXPLAIN), option value (SET)
	Name string `json:"name,omitempty"` // prepared-statement name (PREPARE/EXECUTE), option name (SET)
}

// Error codes carried by Response.Code on failure frames. The engine
// codes mirror obs (cancellation, statement timeout); the server codes
// describe the service itself. Clients switch on the code — never on
// message text — to decide whether an operation is worth retrying.
const (
	CodeCancelled = obs.CodeCancelled // query cancelled by explicit request
	CodeTimeout   = obs.CodeTimeout   // query exceeded its statement timeout

	// CodeOverloaded: the server's worker slots and admission queue are
	// full; the request was shed without being executed. Retry after
	// backing off.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down and no longer accepts
	// work; the request was not executed. Retry against another server
	// (or the same one after it restarts).
	CodeDraining = "draining"
	// CodeInternal: the statement crashed inside the engine (a recovered
	// panic). The statement did not complete; the connection survives.
	CodeInternal = "internal"
)

// Retryable reports whether a response code marks a request the server
// rejected without executing it — safe to retry verbatim, even for
// non-idempotent statements.
func Retryable(code string) bool {
	return code == CodeOverloaded || code == CodeDraining
}

// Response is the server's answer to one Request.
type Response struct {
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`  // set when !OK
	Code string `json:"code,omitempty"` // machine-readable error class, see Code* consts

	// Result payload (QUERY/EXECUTE; Plan for EXPLAIN).
	Columns  []string        `json:"columns,omitempty"`
	Prov     []bool          `json:"prov,omitempty"`
	Rows     [][]types.Value `json:"rows,omitempty"`
	Affected int             `json:"affected,omitempty"`
	Plan     string          `json:"plan,omitempty"`
}

// Encode encodes m into one complete length-prefixed frame. The body
// goes straight into a buffer sized once from m, behind a header patched
// in afterwards. Encode fails without producing bytes when m cannot be
// encoded (±Inf/NaN floats have no JSON form) or exceeds MaxFrame, so a
// caller can substitute an error frame instead of abandoning the
// connection.
func Encode(m Message) ([]byte, error) {
	frame, err := m.appendJSON(make([]byte, 4, 4+m.encodedLen()))
	if err != nil {
		return nil, err
	}
	n := len(frame) - 4
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	return frame, nil
}

// WriteFrame encodes m and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, m Message) error {
	frame, err := Encode(m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame body.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ReadRequest reads and decodes one Request frame.
func ReadRequest(r io.Reader) (*Request, error) {
	body, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	req, err := decodeRequest(body)
	if err != nil {
		return nil, fmt.Errorf("wire: bad request: %v", err)
	}
	return req, nil
}

// ReadResponse reads and decodes one Response frame.
func ReadResponse(r io.Reader) (*Response, error) {
	body, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	resp, err := decodeResponse(body)
	if err != nil {
		return nil, fmt.Errorf("wire: bad response: %v", err)
	}
	return resp, nil
}

// ErrorResponse builds the failure Response for err, carrying the
// engine's structured error code when err is (or wraps) one.
func ErrorResponse(err error) *Response {
	resp := &Response{Err: err.Error()}
	var qe *obs.QueryError
	if errors.As(err, &qe) {
		resp.Code = qe.Code
	}
	return resp
}

// ErrorResponseCode builds a failure Response with an explicit
// server-level code (overloaded, draining, internal).
func ErrorResponseCode(code, msg string) *Response {
	return &Response{Err: msg, Code: code}
}
