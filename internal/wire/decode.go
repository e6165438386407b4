package wire

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"perm/internal/types"
)

// maxDepth bounds the nesting of objects and arrays in a body. It is
// below encoding/json's own limit (10000), so every body this decoder
// accepts is one encoding/json accepts too.
const maxDepth = 1000

// The object keys of each message type, in struct order. A decoded
// key must match one exactly; the index is the field's number in the
// set callbacks below.
var (
	requestFields  = []string{"op", "sql", "name"}
	responseFields = []string{"ok", "err", "code", "columns", "prov", "rows", "affected", "plan"}
	valueFields    = []string{"K", "Null", "I", "F", "S", "B"}
)

// decoder is a strict scanner over one frame body. It accepts the JSON
// grammar and builds the same value encoding/json's Unmarshal builds,
// with three restrictions: a key must spell its field exactly (not just
// case-insensitively), a key may appear once per object, and nesting is
// bounded by maxDepth. Keys of no field are skipped. null decodes as
// the zero value. Invalid UTF-8 and lone surrogates in strings become
// U+FFFD, as in encoding/json.
type decoder struct {
	data    []byte
	pos     int
	depth   int
	scratch []byte // unescaped string bytes, reused between strings
}

func decodeRequest(body []byte) (*Request, error) {
	d := &decoder{data: body}
	q := new(Request)
	err := d.object(requestFields, func(field int) (err error) {
		switch field {
		case 0:
			q.Op, err = d.str()
		case 1:
			q.SQL, err = d.str()
		case 2:
			q.Name, err = d.str()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

func decodeResponse(body []byte) (*Response, error) {
	d := &decoder{data: body}
	r := new(Response)
	err := d.object(responseFields, func(field int) (err error) {
		switch field {
		case 0:
			r.OK, err = d.boolean()
		case 1:
			r.Err, err = d.str()
		case 2:
			r.Code, err = d.str()
		case 3:
			r.Columns, err = d.strings()
		case 4:
			r.Prov, err = d.booleans()
		case 5:
			r.Rows, err = d.rows(len(r.Columns))
		case 6:
			var n int64
			n, err = d.int64()
			r.Affected = int(n)
			if err == nil && int64(r.Affected) != n {
				err = d.fail("affected count overflows int")
			}
		case 7:
			r.Plan, err = d.str()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// rows decodes the result rows. Each row's slice is sized for width
// values, the number of result columns.
func (d *decoder) rows(width int) ([][]types.Value, error) {
	if d.null() {
		return nil, nil
	}
	rows := [][]types.Value{}
	err := d.elems(func() error {
		if d.null() {
			rows = append(rows, nil)
			return nil
		}
		row := make([]types.Value, 0, width)
		err := d.elems(func() error {
			row = append(row, types.Value{})
			return d.value(&row[len(row)-1])
		})
		rows = append(rows, row)
		return err
	})
	return rows, err
}

func (d *decoder) value(v *types.Value) error {
	return d.object(valueFields, func(field int) (err error) {
		switch field {
		case 0:
			v.K, err = d.kind()
		case 1:
			v.Null, err = d.boolean()
		case 2:
			v.I, err = d.int64()
		case 3:
			v.F, err = d.float()
		case 4:
			v.S, err = d.str()
		case 5:
			v.B, err = d.boolean()
		}
		return err
	})
}

func (d *decoder) strings() ([]string, error) {
	if d.null() {
		return nil, nil
	}
	out := []string{}
	err := d.elems(func() error {
		s, err := d.str()
		out = append(out, s)
		return err
	})
	return out, err
}

func (d *decoder) booleans() ([]bool, error) {
	if d.null() {
		return nil, nil
	}
	out := []bool{}
	err := d.elems(func() error {
		b, err := d.boolean()
		out = append(out, b)
		return err
	})
	return out, err
}

// object decodes an object whose known keys are fields, calling set
// with the field's index to decode each known member's value. A key
// that differs from a field only in case is an error, because
// encoding/json would match it to the field; other keys are skipped.
func (d *decoder) object(fields []string, set func(field int) error) error {
	if d.null() {
		return nil
	}
	if err := d.open('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		return d.close()
	}
	var seen uint32
	next := 0 // the field expected next when keys come in struct order
	for {
		key, err := d.strBytes()
		if err != nil {
			return err
		}
		field := -1
		if next < len(fields) && string(key) == fields[next] {
			field = next
		} else {
			for i, f := range fields {
				if string(key) == f {
					field = i
					break
				}
			}
		}
		next = field + 1
		if field < 0 {
			for _, f := range fields {
				if bytes.EqualFold(key, []byte(f)) {
					return d.fail(fmt.Sprintf("key %q must be spelled %q", key, f))
				}
			}
		} else {
			if seen&(1<<field) != 0 {
				return d.fail(fmt.Sprintf("duplicate key %q", key))
			}
			seen |= 1 << field
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if field >= 0 {
			err = set(field)
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			return d.close()
		default:
			return d.fail("expected ',' or '}' after object member")
		}
	}
}

// elems decodes an array, calling elem to decode each element.
func (d *decoder) elems(elem func() error) error {
	if err := d.open('['); err != nil {
		return err
	}
	if d.peek() == ']' {
		return d.close()
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			return d.close()
		default:
			return d.fail("expected ',' or ']' after array element")
		}
	}
}

// skip validates and discards one value of any type.
func (d *decoder) skip() error {
	switch d.peek() {
	case '{':
		return d.object(nil, nil)
	case '[':
		return d.elems(d.skip)
	case '"':
		_, err := d.strBytes()
		return err
	case 't', 'f':
		_, err := d.boolean()
		return err
	case 'n':
		if d.null() {
			return nil
		}
		return d.fail("invalid literal")
	default:
		_, err := d.number()
		return err
	}
}

func (d *decoder) open(c byte) error {
	if err := d.expect(c); err != nil {
		return err
	}
	if d.depth++; d.depth > maxDepth {
		return d.fail("nesting too deep")
	}
	return nil
}

// close consumes the closing bracket peek has just seen.
func (d *decoder) close() error {
	d.pos++
	d.depth--
	return nil
}

func (d *decoder) str() (string, error) {
	if d.null() {
		return "", nil
	}
	b, err := d.strBytes()
	return string(b), err
}

// strBytes decodes a string literal. The result aliases the body or
// the scratch buffer, so it is valid only until the next string.
func (d *decoder) strBytes() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.fail("expected string")
	}
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c == '"' {
			d.pos++
			return d.data[start : d.pos-1], nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return d.unquote(start)
		}
		d.pos++
	}
	return nil, d.fail("unterminated string")
}

// unquote finishes a string literal that needs unescaping or UTF-8
// repair, starting over at start, into the scratch buffer.
func (d *decoder) unquote(start int) ([]byte, error) {
	b := append(d.scratch[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.scratch = b
			return b, nil
		case c < 0x20:
			return nil, d.fail("control character in string")
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			d.pos++
		case c >= utf8.RuneSelf:
			// Re-encoding the decoded rune turns each invalid byte into
			// U+FFFD and copies valid runes as they are.
			r, size := utf8.DecodeRune(d.data[d.pos:])
			b = utf8.AppendRune(b, r)
			d.pos += size
		default: // backslash
			if d.pos+1 >= len(d.data) {
				return nil, d.fail("unterminated string")
			}
			esc := d.data[d.pos+1]
			d.pos += 2
			switch esc {
			case '"', '\\', '/':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[d.pos:])
				if r < 0 {
					return nil, d.fail("invalid \\u escape")
				}
				d.pos += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with an escaped low one that
					// follows; anything else becomes U+FFFD.
					r2 := rune(-1)
					if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
						r2 = hex4(d.data[d.pos+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						d.pos += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.fail("invalid escape")
			}
		}
	}
	return nil, d.fail("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

func (d *decoder) boolean() (bool, error) {
	switch d.peek() {
	case 't':
		if d.literal("true") {
			return true, nil
		}
	case 'f':
		if d.literal("false") {
			return false, nil
		}
	case 'n':
		if d.literal("null") {
			return false, nil
		}
	}
	return false, d.fail("expected boolean")
}

// number scans a number token by the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() ([]byte, error) {
	d.ws()
	start := d.pos
	d.eat('-')
	if !d.eat('0') && d.digits() == 0 {
		return nil, d.fail("invalid number")
	}
	if d.eat('.') && d.digits() == 0 {
		return nil, d.fail("invalid number fraction")
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			return nil, d.fail("invalid number exponent")
		}
	}
	return d.data[start:d.pos], nil
}

// int64 decodes an integer field, which takes no fraction or exponent.
func (d *decoder) int64() (int64, error) {
	if d.null() {
		return 0, nil
	}
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, d.fail(fmt.Sprintf("%s is not a 64-bit integer", tok))
	}
	return n, nil
}

// kind decodes a types.Kind, an unsigned 8-bit integer.
func (d *decoder) kind() (types.Kind, error) {
	if d.null() {
		return 0, nil
	}
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(string(tok), 10, 8)
	if err != nil {
		return 0, d.fail(fmt.Sprintf("%s is not a value kind (0-255)", tok))
	}
	return types.Kind(n), nil
}

func (d *decoder) float() (float64, error) {
	if d.null() {
		return 0, nil
	}
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.fail(fmt.Sprintf("%s is out of float64 range", tok))
	}
	return f, nil
}

// null consumes a null literal if one comes next.
func (d *decoder) null() bool {
	return d.peek() == 'n' && d.literal("null")
}

func (d *decoder) literal(word string) bool {
	if bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		d.pos += len(word)
		return true
	}
	return false
}

func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.fail(fmt.Sprintf("expected %q", c))
	}
	d.pos++
	return nil
}

// end checks that nothing but whitespace follows the message.
func (d *decoder) end() error {
	if d.ws(); d.pos != len(d.data) {
		return d.fail("data after message")
	}
	return nil
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) ws() {
	// Every whitespace byte is <= ' ', so most calls stop at the test.
	for d.pos < len(d.data) && d.data[d.pos] <= ' ' {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) eat(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *decoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

func (d *decoder) fail(msg string) error {
	return fmt.Errorf("offset %d: %s", d.pos, msg)
}
