package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"perm/internal/types"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpQuery, SQL: "SELECT PROVENANCE name FROM shop"},
		{Op: OpExec, SQL: "INSERT INTO shop VALUES ('Aldi', 9)"},
		{Op: OpPrepare, Name: "q1", SQL: "SELECT 1"},
		{Op: OpExecute, Name: "q1"},
		{Op: OpExplain, SQL: "SELECT 1"},
		{Op: OpSet, Name: "disable_optimizer", SQL: "on"},
		{Op: OpPing},
	}
	var buf bytes.Buffer
	for _, r := range reqs {
		if err := WriteFrame(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range reqs {
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestResponseRoundTripTypedValues(t *testing.T) {
	want := &Response{
		OK:      true,
		Columns: []string{"name", "n", "f", "d", "b", "nul"},
		Prov:    []bool{false, false, false, false, false, true},
		Rows: [][]types.Value{{
			types.NewString("Merdies"),
			types.NewInt(3),
			types.NewFloat(2.5),
			types.NewDate(19000),
			types.NewBool(true),
			types.NewNull(types.KindInt),
		}},
		Affected: 1,
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
	// Typed values must render identically after the trip.
	for i, v := range got.Rows[0] {
		if v.String() != want.Rows[0][i].String() {
			t.Fatalf("value %d renders %q, want %q", i, v.String(), want.Rows[0][i].String())
		}
	}
}

// TestGoldenFrame pins the on-wire bytes of a fixed request so protocol
// changes are deliberate, not accidental.
func TestGoldenFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{Op: OpQuery, SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	// JSON field order follows struct order, so the frame is deterministic.
	golden := "\x00\x00\x00\x1f" + `{"op":"QUERY","sql":"SELECT 1"}`
	if got := buf.String(); got != golden {
		t.Fatalf("frame = %q, want %q", got, golden)
	}
	n := binary.BigEndian.Uint32(buf.Bytes()[:4])
	if int(n) != buf.Len()-4 {
		t.Fatalf("length prefix %d, body %d", n, buf.Len()-4)
	}
}

// TestGoldenResponseFrame pins the on-wire bytes of a Response carrying
// every value kind, escaped strings and an e-notation float. The codec
// and encoding/json must both produce them.
func TestGoldenResponseFrame(t *testing.T) {
	golden := "\x00\x00\x02\x9d" + `{"ok":true,"columns":["null","b","n","f","e","s","d","iv","tn"],` +
		`"prov":[false,false,false,false,false,false,false,true,true],"rows":[[` +
		`{"K":0,"Null":true,"I":0,"F":0,"S":"","B":false},` +
		`{"K":1,"Null":false,"I":0,"F":0,"S":"","B":true},` +
		`{"K":2,"Null":false,"I":-42,"F":0,"S":"","B":false},` +
		`{"K":3,"Null":false,"I":0,"F":2.5,"S":"","B":false},` +
		`{"K":3,"Null":false,"I":0,"F":1.5e-7,"S":"","B":false},` +
		`{"K":4,"Null":false,"I":0,"F":0,"S":"\u003cTom \u0026 \"Jerry\"\u003e\t\\ \u2028 \ufffd","B":false},` +
		`{"K":5,"Null":false,"I":19000,"F":0,"S":"","B":false},` +
		`{"K":6,"Null":false,"I":60129542147,"F":0,"S":"","B":false},` +
		`{"K":4,"Null":true,"I":0,"F":0,"S":"","B":false}]],"affected":1}`
	frame, err := Encode(goldenResponse())
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != golden {
		t.Fatalf("Encode frame = %q\nwant          %q", frame, golden)
	}
	body, err := json.Marshal(goldenResponse())
	if err != nil {
		t.Fatal(err)
	}
	if got := golden[:4] + string(body); got != golden {
		t.Fatalf("json.Marshal frame = %q\nwant               %q", got, golden)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated body must fail")
	}
	if _, err := ReadFrame(bytes.NewReader(b[:2])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: %v", err)
	}
}

func TestBadJSONRejected(t *testing.T) {
	var buf bytes.Buffer
	body := []byte(`{"op":`)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := ReadRequest(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("bad JSON must fail")
	}
}

// goldenResponse has one value of every kind (and a typed NULL), strings
// that need escaping, and floats on both sides of the e-notation switch.
func goldenResponse() *Response {
	return &Response{
		OK:      true,
		Columns: []string{"null", "b", "n", "f", "e", "s", "d", "iv", "tn"},
		Prov:    []bool{false, false, false, false, false, false, false, true, true},
		Rows: [][]types.Value{{
			types.NullValue,
			types.NewBool(true),
			types.NewInt(-42),
			types.NewFloat(2.5),
			types.NewFloat(1.5e-7),
			types.NewString("<Tom & \"Jerry\">\t\\ \xe2\x80\xa8 \xff"),
			types.NewDate(19000),
			types.NewInterval(14, 3),
			types.NewNull(types.KindString),
		}},
		Affected: 1,
	}
}
