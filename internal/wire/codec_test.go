package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"perm/internal/types"
)

// The codec's oracle is encoding/json: the wire bodies are defined as
// what json.Marshal emits for Request and Response, and a body the
// decoder accepts must unmarshal to the same value under json.Unmarshal.

// checkEncode asserts that Encode(m) frames exactly json.Marshal(m),
// within the size encodedLen promised (so the frame never regrew).
func checkEncode(t *testing.T, m Message) []byte {
	t.Helper()
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	frame, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v (json.Marshal accepts it)", err)
	}
	if got := frame[4:]; !bytes.Equal(got, want) {
		t.Fatalf("Encode body differs from json.Marshal:\ngot  %q\nwant %q", got, want)
	}
	if bound := 4 + m.encodedLen(); cap(frame) != bound {
		t.Fatalf("frame cap %d, encodedLen promised %d (body %d)", cap(frame), bound, len(frame))
	}
	return frame
}

// checkDecode decodes body with decode and with json.Unmarshal into a
// fresh T. When the codec accepts the body, encoding/json must accept it
// too and build an equal value, and re-encoding must match json.Marshal.
// It returns the decoded value, or nil when the codec rejected the body.
func checkDecode[T any, PT interface {
	*T
	Message
}](t *testing.T, body []byte, decode func([]byte) (PT, error)) PT {
	t.Helper()
	got, err := decode(body)
	if err != nil {
		return nil
	}
	want := PT(new(T))
	if err := json.Unmarshal(body, want); err != nil {
		t.Fatalf("codec accepted %q, encoding/json rejects it: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode(%q):\ngot  %#v\nwant %#v", body, got, want)
	}
	frame := checkEncode(t, got)
	// The codec must read back what it writes, to the same bytes.
	again, err := decode(frame[4:])
	if err != nil {
		t.Fatalf("codec rejects its own encoding %q: %v", frame[4:], err)
	}
	if refr, _ := Encode(again); !bytes.Equal(refr, frame) {
		t.Fatalf("re-encoding is not stable:\n%q\n%q", frame, refr)
	}
	return got
}

// checkNonFinite asserts that r fails to encode once a row carries a NaN
// or infinite float, as it does under json.Marshal.
func checkNonFinite(t *testing.T, r *Response) {
	t.Helper()
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := *r
		bad.Rows = append(append([][]types.Value{}, r.Rows...), []types.Value{types.NewFloat(f)})
		if _, err := Encode(&bad); err == nil {
			t.Fatalf("Encode accepted a %v value", f)
		}
		if _, err := json.Marshal(&bad); err == nil {
			t.Fatalf("json.Marshal accepted a %v value", f)
		}
	}
}

func FuzzRequestCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, decodeRequest)
	})
}

func FuzzResponseCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if r := checkDecode(t, body, decodeResponse); r != nil {
			checkNonFinite(t, r)
		}
	})
}

// TestCodecMatchesEncodingJSON runs the codec against encoding/json on
// randomized messages built from the awkward corners of the value space.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		q := &Request{Op: randString(rng), SQL: randString(rng), Name: randString(rng)}
		checkDecode(t, checkEncode(t, q)[4:], decodeRequest)

		r := randResponse(rng)
		checkDecode(t, checkEncode(t, r)[4:], decodeResponse)
		if i%50 == 0 {
			checkNonFinite(t, r)
		}
	}
}

func randResponse(rng *rand.Rand) *Response {
	r := &Response{OK: rng.Intn(2) == 0}
	if rng.Intn(3) == 0 {
		r.Err, r.Code = randString(rng), randString(rng)
	}
	if rng.Intn(4) == 0 {
		r.Plan = randString(rng)
	}
	if rng.Intn(4) == 0 {
		r.Affected = int(randInt(rng))
	}
	width := rng.Intn(5)
	if rng.Intn(5) > 0 {
		r.Columns = make([]string, width)
		r.Prov = make([]bool, width)
		for c := range r.Columns {
			r.Columns[c] = randString(rng)
			r.Prov[c] = rng.Intn(2) == 0
		}
	}
	nrows := rng.Intn(4)
	if nrows > 0 {
		r.Rows = make([][]types.Value, nrows)
	}
	for i := range r.Rows {
		switch rng.Intn(8) {
		case 0: // a nil row encodes as null
		case 1:
			r.Rows[i] = []types.Value{}
		default:
			r.Rows[i] = make([]types.Value, width)
			for j := range r.Rows[i] {
				r.Rows[i][j] = randValue(rng)
			}
		}
	}
	return r
}

// randValue draws a value of a random kind, sometimes NULL, sometimes
// with junk in the payload fields its kind does not use (every field
// travels on the wire).
func randValue(rng *rand.Rand) types.Value {
	k := types.Kind(rng.Intn(int(types.KindInterval) + 1))
	v := types.Value{K: k}
	switch k {
	case types.KindBool:
		v.B = rng.Intn(2) == 0
	case types.KindInt, types.KindDate:
		v.I = randInt(rng)
	case types.KindFloat:
		v.F = randFloat(rng)
	case types.KindString:
		v.S = randString(rng)
	case types.KindInterval:
		v = types.NewInterval(int32(rng.Uint32()), int32(rng.Uint32()))
	}
	if rng.Intn(6) == 0 {
		v = types.NewNull(k)
	}
	if rng.Intn(10) == 0 {
		v.I, v.F, v.S, v.B = randInt(rng), randFloat(rng), randString(rng), true
	}
	if rng.Intn(50) == 0 {
		v.K = types.Kind(rng.Intn(256))
	}
	return v
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(5) {
	case 0:
		return []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 9, 10, -10}[rng.Intn(8)]
	case 1:
		return int64(rng.Uint64())
	default:
		return rng.Int63n(100000) - 50000
	}
}

// floatCorners are the floats on either side of encoding/json's format
// switches (1e-6 and 1e21) and at the ends of the float64 range.
var floatCorners = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e-7, 1e-9, 1e-10, 123456789e-15,
	1e20, 1.5e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 1 << 53, 0.1, 1.0 / 3, 5e-324, 12345.67,
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return floatCorners[rng.Intn(len(floatCorners))]
	}
	f := rng.Float64() * math.Pow(10, float64(rng.Intn(640)-320))
	if rng.Intn(2) == 0 {
		f = -f
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0
	}
	return f
}

// stringPieces cover every escaping rule of encoding/json: HTML bytes,
// quotes and backslashes, each control character, DEL, U+2028/U+2029,
// valid multi-byte runes, U+FFFD itself, and invalid UTF-8 (stray
// continuation bytes, truncated sequences, overlong forms, encoded
// surrogates, bytes that never appear in UTF-8).
var stringPieces = []string{
	"a", "Customer#000000001", " ", "<", ">", "&", `"`, `\`, "/", "\b", "\f", "\n", "\r", "\t",
	"\x00", "\x01", "\x1f", "\x7f", "\xe2\x80\xa8", "\xe2\x80\xa9", "\xe2\x80\xaa", "\xc3\xa9",
	"\xe6\x97\xa5", "\xf0\x9f\x98\x80", "\xef\xbf\xbd", "\x80", "\xff", "\xc3", "\xe2\x80",
	"\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

func randString(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return ""
	}
	var sb strings.Builder
	for n := rng.Intn(8); n >= 0; n-- {
		sb.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return sb.String()
}

func TestDecoderAcceptsJSON(t *testing.T) {
	requests := []string{
		`{"op":"QUERY","sql":"SELECT 1"}`,
		` { "sql" : "SELECT 1" , "op" : "QUERY" } `,
		"{\t\"op\":\n\"PING\"\r}",
		`{"name":"q1","op":"EXECUTE"}`,
		`{"op":"QUERY","sql":"SELECT 1","extra":{"nested":[1,-2.5e+3,true,null,"x",{}]},"n":null}`,
		`{"op":null,"sql":null}`,
		`{"op":"\u0051UERY","sql":"\u00e9t\u00C9 \"q\" \\ \/ \b\f\n\r\t"}`,
		`{"op":"QUERY","sql":"\ud83d\ude00 \ud83d alone, \ude00 alone, \ud83d\u0041 unpaired"}`,
		`{"op":"QUERY","sql":"` + "\xff\xc3 invalid, \xe2\x80\xa8 raw" + `"}`,
		`{"\u006fp":"QUERY"}`,
		`{}`,
		`null`,
	}
	for _, body := range requests {
		if got := checkDecode(t, []byte(body), decodeRequest); got == nil {
			_, err := decodeRequest([]byte(body))
			t.Errorf("decodeRequest(%q) rejected valid JSON: %v", body, err)
		}
	}
	responses := []string{
		`{"ok":true,"columns":["a","b"],"prov":[false,true],"rows":[[{"K":2,"Null":false,"I":-9223372036854775808,"F":0,"S":"","B":false},null],[],null],"affected":3}`,
		`{"rows":[[{"B":true,"S":"x","F":-0,"I":9223372036854775807,"Null":true,"K":255}]],"ok":false}`,
		`{"ok":true,"rows":[[{"F":1E+2},{"F":1.5e-7},{"F":2.2250738585072014e-308},{"F":1e-400}, {} ,null]]}`,
		`{"ok":true,"columns":[],"prov":[],"rows":[],"plan":"Scan"}`,
		`{"ok":true,"columns":null,"prov":null,"rows":null,"affected":null,"err":null}`,
		`{"ok":true,"rows":[[{"K":3,"extra":[[[]]],"I":-0}]],"future":{"x":1}}`,
	}
	for _, body := range responses {
		if got := checkDecode(t, []byte(body), decodeResponse); got == nil {
			_, err := decodeResponse([]byte(body))
			t.Errorf("decodeResponse(%q) rejected valid JSON: %v", body, err)
		}
	}
}

func TestDecoderRejects(t *testing.T) {
	requests := []string{
		``, ` `, `{`, `{"op"`, `{"op":`, `{"op":"QUERY"`, `{"op":"QUERY",}`, `{"op":"QUERY"}x`,
		`{"op":"QUERY"}{}`, `{op:"QUERY"}`, `{'op':"QUERY"}`, `{"op":'QUERY'}`, `{"op":1}`,
		`{"op":["QUERY"]}`, `{"op":"QU` + "\n" + `ERY"}`, `{"op":"\u12"}`, `{"op":"\uzzzz"}`,
		`{"op":"\x"}`, `{"op":"QUERY","op":"PING"}`, `{"OP":"QUERY"}`, `{"Sql":"SELECT 1"}`,
		`{"x":+1}`, `{"x":01}`, `{"x":0x10}`, `{"x":1.}`, `{"x":.5}`, `{"x":1e}`, `{"x":-}`,
		`{"x":NaN}`, `{"x":Infinity}`, `{"x":nul}`, `{"x":tru}`, `{"x":[1,]}`, `{"x":[1 2]}`,
		`{"x":{"a":1,}}`, `{"x":{"a"}}`, `[]`, `"op"`, `nullnull`,
		`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	}
	for _, body := range requests {
		if q, err := decodeRequest([]byte(body)); err == nil {
			t.Errorf("decodeRequest(%q) = %+v, want an error", body, q)
		}
	}
	responses := []string{
		`{"ok":1}`, `{"ok":"true"}`, `{"OK":true}`, `{"ok":true,"ok":false}`,
		`{"affected":1e3}`, `{"affected":1.0}`, `{"affected":9223372036854775808}`,
		`{"rows":[[{"I":1e3}]]}`, `{"rows":[[{"I":1.5}]]}`, `{"rows":[[{"I":"1"}]]}`,
		`{"rows":[[{"I":-9223372036854775809}]]}`, `{"rows":[[{"K":256}]]}`, `{"rows":[[{"K":-1}]]}`,
		`{"rows":[[{"K":-0}]]}`, `{"rows":[[{"F":1e400}]]}`, `{"rows":[[{"F":-1e309}]]}`,
		`{"rows":[[{"k":2}]]}`, `{"rows":[[{"K":2,"K":3}]]}`, `{"rows":[[1]]}`, `{"rows":[{}]}`,
		`{"rows":{}}`, `{"columns":[1]}`, `{"prov":[0]}`, `{"rows":[[{"S":1}]]}`,
		`{"rows":[[{"B":"true"}]]}`, `{"rows":[[{"Null":null,"S":"` + "\x01" + `"}]]}`,
		`{"rows":[[{"S":"x"}]],"rows":[]}`,
	}
	for _, body := range responses {
		if r, err := decodeResponse([]byte(body)); err == nil {
			t.Errorf("decodeResponse(%q) = %+v, want an error", body, r)
		}
	}
}

// TestDecoderTruncations cuts a valid body at every offset: each prefix
// must fail cleanly (no panic), and the full body must decode.
func TestDecoderTruncations(t *testing.T) {
	frame, err := Encode(goldenResponse())
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	for i := 0; i < len(body); i++ {
		if _, err := decodeResponse(body[:i]); err == nil {
			t.Fatalf("prefix %q decoded", body[:i])
		}
	}
	if _, err := decodeResponse(body); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeSizesRowsFromColumns: each row's backing array is sized from
// len(Columns), so decoding a row does not regrow it.
func TestDecodeSizesRowsFromColumns(t *testing.T) {
	r, err := decodeResponse([]byte(`{"ok":true,"columns":["a","b","c"],"rows":[[{"K":2},{"K":2},{"K":2}],[]]}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.Rows {
		if cap(row) != 3 {
			t.Errorf("row %d has cap %d, want 3", i, cap(row))
		}
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	checkNonFinite(t, &Response{OK: true, Columns: []string{"x"}})
	_, err := Encode(&Response{OK: true, Rows: [][]types.Value{{types.NewFloat(math.Inf(1))}}})
	if err == nil || !strings.Contains(err.Error(), "unsupported value: +Inf") {
		t.Fatalf("Encode(+Inf) error = %v", err)
	}
}
