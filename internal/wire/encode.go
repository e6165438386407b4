package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"perm/internal/types"
)

// Message is a frame body: *Request or *Response. Its methods are
// unexported, so the codec serves exactly those two types.
type Message interface {
	// encodedLen bounds the length of the body's encoding from above,
	// so Encode can size the frame once.
	encodedLen() int
	// appendJSON appends the body's encoding to dst. It produces the
	// bytes encoding/json's Marshal produces for the same value.
	appendJSON(dst []byte) ([]byte, error)
}

// maxFloatLen bounds the length of a nonzero float64 in appendFloat's
// format: "-0.0000012345678901234567" is 25 bytes, and no 'e' form is
// longer ("-1.2345678901234567e-308" is 24).
const maxFloatLen = 25

// The fixed parts of one encoded types.Value: the keys, the braces and
// the commas between fields.
const valueOverhead = len(`{"K":,"Null":,"I":,"F":,"S":,"B":}`)

func (q *Request) encodedLen() int {
	n := len(`{"op":}`) + quotedLen(q.Op)
	if q.SQL != "" {
		n += len(`,"sql":`) + quotedLen(q.SQL)
	}
	if q.Name != "" {
		n += len(`,"name":`) + quotedLen(q.Name)
	}
	return n
}

func (q *Request) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"op":`...)
	b = appendString(b, q.Op)
	if q.SQL != "" {
		b = append(b, `,"sql":`...)
		b = appendString(b, q.SQL)
	}
	if q.Name != "" {
		b = append(b, `,"name":`...)
		b = appendString(b, q.Name)
	}
	return append(b, '}'), nil
}

func (r *Response) encodedLen() int {
	n := len(`{"ok":false}`)
	if r.Err != "" {
		n += len(`,"err":`) + quotedLen(r.Err)
	}
	if r.Code != "" {
		n += len(`,"code":`) + quotedLen(r.Code)
	}
	if len(r.Columns) > 0 {
		n += len(`,"columns":[]`) + len(r.Columns) - 1
		for _, c := range r.Columns {
			n += quotedLen(c)
		}
	}
	if len(r.Prov) > 0 {
		n += len(`,"prov":[]`) + len(r.Prov)*len("false,") - 1
	}
	if len(r.Rows) > 0 {
		n += len(`,"rows":[]`) + len(r.Rows) - 1
		for _, row := range r.Rows {
			if row == nil {
				n += len("null")
				continue
			}
			n += len("[]") + len(row)*(valueOverhead+len(","))
			for i := range row {
				n += valueLen(&row[i])
			}
		}
	}
	if r.Affected != 0 {
		n += len(`,"affected":`) + intLen(int64(r.Affected))
	}
	if r.Plan != "" {
		n += len(`,"plan":`) + quotedLen(r.Plan)
	}
	return n
}

func (r *Response) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	if r.Err != "" {
		b = append(b, `,"err":`...)
		b = appendString(b, r.Err)
	}
	if r.Code != "" {
		b = append(b, `,"code":`...)
		b = appendString(b, r.Code)
	}
	if len(r.Columns) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range r.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	if len(r.Prov) > 0 {
		b = append(b, `,"prov":[`...)
		for i, p := range r.Prov {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, p)
		}
		b = append(b, ']')
	}
	if len(r.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j := range row {
				if j > 0 {
					b = append(b, ',')
				}
				var err error
				if b, err = appendValue(b, &row[j]); err != nil {
					return nil, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if r.Affected != 0 {
		b = append(b, `,"affected":`...)
		b = strconv.AppendInt(b, int64(r.Affected), 10)
	}
	if r.Plan != "" {
		b = append(b, `,"plan":`...)
		b = appendString(b, r.Plan)
	}
	return append(b, '}'), nil
}

// valueLen is the encoded length of v's fields, without valueOverhead.
func valueLen(v *types.Value) int {
	n := intLen(int64(v.K)) + boolLen(v.Null) + intLen(v.I) + quotedLen(v.S) + boolLen(v.B)
	switch {
	case v.F != 0:
		n += maxFloatLen
	case math.Signbit(v.F):
		n += len("-0")
	default:
		n += len("0")
	}
	return n
}

// appendValue encodes every field of v, in struct order, as
// encoding/json does for the untagged types.Value struct.
func appendValue(b []byte, v *types.Value) ([]byte, error) {
	b = append(b, `{"K":`...)
	b = strconv.AppendUint(b, uint64(v.K), 10)
	b = append(b, `,"Null":`...)
	b = strconv.AppendBool(b, v.Null)
	b = append(b, `,"I":`...)
	b = strconv.AppendInt(b, v.I, 10)
	b = append(b, `,"F":`...)
	b, err := appendFloat(b, v.F)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"S":`...)
	b = appendString(b, v.S)
	b = append(b, `,"B":`...)
	b = strconv.AppendBool(b, v.B)
	return append(b, '}'), nil
}

// appendFloat formats f as encoding/json does: like ES6 number to
// string conversion, 'e' notation outside [1e-6, 1e21) with the exponent
// unpadded. NaN and ±Inf have no JSON form and fail.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("wire: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes that go into a string literal
// unescaped: the printable ones except '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendString appends s as a JSON string literal with encoding/json's
// escaping: HTML-sensitive bytes and control characters as \u00XX
// (except \b \f \n \r \t), U+2028 and U+2029 as \u202X, and every byte
// of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// quotedLen is the exact length of appendString(nil, s).
func quotedLen(s string) int {
	n := len(s) + len(`""`)
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case htmlSafe[c]:
			case c == '\\' || c == '"' || c == '\b' || c == '\f' || c == '\n' || c == '\r' || c == '\t':
				n++
			default:
				n += len(`\u0000`) - 1
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			n += len(`\ufffd`) - 1
		case r == '\u2028' || r == '\u2029':
			n += len(`\u2028`) - size
		}
		i += size
	}
	return n
}

func intLen(i int64) int {
	n, u := 1, uint64(i)
	if i < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

func boolLen(b bool) int {
	if b {
		return len("true")
	}
	return len("false")
}
