// Package wire decodes the JSON that fpga3d reads on its hot paths —
// instance files and fpgad's solve-shaped request bodies — in one
// pass over the bytes, without reflection.
//
// A Decoder is a strict cursor over one body. Callers walk their own
// types with Object, Slice, String, Int, Int64, Bool and Null, and each
// accepts and rejects exactly what encoding/json's Decoder does when
// it decodes into the matching Go type with DisallowUnknownFields, and
// leaves the same value behind:
//
//   - keys match a field name exactly or under Unicode case folding
//     (Field), after escape processing;
//   - a repeated key decodes again into the value already there, so
//     objects merge and slices reuse the elements a previous
//     occurrence left in their backing array (Slice);
//   - null leaves a string, number, bool or object unchanged and sets a
//     slice or a pointer to nil (Null);
//   - integers reject fractions, exponents and overflow;
//   - strings replace invalid UTF-8 and unpaired surrogates with
//     U+FFFD and reject control characters;
//   - nesting deeper than 10 000 levels is a syntax error;
//   - only the first value is read: bytes after it are ignored.
//
// Errors are either a *SyntaxError, for malformed JSON, or a plain
// error naming the type mismatch or unknown field. Isolated tells the
// two apart for a value whose decoding may fail alone.
package wire

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Decoder reads JSON values from a byte slice.
type Decoder struct {
	data  []byte
	pos   int
	depth int
}

// NewDecoder returns a Decoder positioned at the start of data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// SyntaxError reports malformed JSON at a byte offset of the input.
type SyntaxError struct {
	Offset int
	msg    string
}

// Error formats the error with its offset.
func (e *SyntaxError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.Offset) }

// UnknownField is the error for an object key that names no field.
func UnknownField(key []byte) error { return fmt.Errorf("unknown field %q", key) }

// Field returns the index of the name that key selects — an exact
// match, else a match under Unicode case folding, as encoding/json
// matches struct fields — or -1 when it selects none.
func Field(key []byte, names ...string) int {
	for i, n := range names {
		if len(key) == len(n) && len(n) > 0 && key[0] == n[0] && string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// Object decodes a JSON object, calling field with each unquoted key;
// field must consume the member's value with a Decoder method or fail,
// typically with UnknownField. The key is valid only during the call.
// A null decodes nothing, as encoding/json leaves a struct unchanged
// on null.
func (d *Decoder) Object(field func(key []byte) error) error {
	switch d.space() {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("object")
	}
	if err := d.enter(); err != nil {
		return err
	}
	if d.space() == '}' {
		return d.leave()
	}
	for {
		if d.space() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.space() != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		if err := field(key); err != nil {
			return err
		}
		switch d.space() {
		case ',':
			d.pos++
		case '}':
			return d.leave()
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// Slice decodes a JSON array into *s, one element at a time with elem,
// or sets *s to nil on null. Like encoding/json it decodes into the
// elements already in the backing array of *s before it grows it, and
// an empty array yields an empty, non-nil slice.
func Slice[T any](d *Decoder, s *[]T, elem func(*T) error) error {
	switch d.space() {
	case '[':
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*s = nil
		return nil
	default:
		return d.mismatch("array")
	}
	v := (*s)[:0]
	err := d.array(func() error {
		switch {
		case len(v) < cap(v):
			v = v[:len(v)+1]
		case cap(v) == 0:
			v = make([]T, 1, 8) // skips the first doublings of a short array
		default:
			var zero T
			v = append(v, zero)
		}
		*s = v
		return elem(&v[len(v)-1])
	})
	if err == nil && len(v) == 0 {
		*s = []T{}
	}
	return err
}

// array walks the array whose '[' is at the cursor, calling elem to
// consume each element.
func (d *Decoder) array(elem func() error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.space() == ']' {
		return d.leave()
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.space() {
		case ',':
			d.pos++
		case ']':
			return d.leave()
		default:
			return d.syntax("after array element")
		}
	}
}

// Null consumes the next value and reports true if it is null;
// otherwise it consumes nothing. A pointer field decodes as
//
//	if d.Null() { p = nil } else { if p == nil { p = new(T) }; decode into *p }
func (d *Decoder) Null() bool {
	if d.space() == 'n' && bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// String decodes a JSON string into *p; null leaves *p unchanged.
func (d *Decoder) String(p *string) error {
	switch d.space() {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*p = string(s)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string")
}

// Bool decodes true or false into *p; null leaves *p unchanged.
func (d *Decoder) Bool(p *bool) error {
	switch d.space() {
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*p = false
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool")
}

// Int decodes an integer into *p; null leaves *p unchanged. A number
// with a fraction or an exponent, or out of int's range, is an error.
func (d *Decoder) Int(p *int) error {
	n, ok, err := d.integer()
	if err != nil || !ok {
		return err
	}
	if int64(int(n)) != n {
		return fmt.Errorf("number %d overflows int", n)
	}
	*p = int(n)
	return nil
}

// Int64 decodes an integer into *p; null leaves *p unchanged. A number
// with a fraction or an exponent, or out of int64's range, is an
// error.
func (d *Decoder) Int64(p *int64) error {
	n, ok, err := d.integer()
	if err == nil && ok {
		*p = n
	}
	return err
}

// integer decodes the next value as an integer; ok is false on null.
func (d *Decoder) integer() (n int64, ok bool, err error) {
	switch c := d.space(); {
	case c == 'n':
		return 0, false, d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return 0, false, d.mismatch("int")
	}
	start := d.pos
	integral, err := d.number()
	if err != nil {
		return 0, false, err
	}
	lit := d.data[start:d.pos]
	if integral {
		if n, ok := parseInt(lit); ok {
			return n, true, nil
		}
	}
	return 0, false, fmt.Errorf("cannot decode number %s into an integer at offset %d", lit, start)
}

// parseInt parses a syntactically valid integral JSON number; ok is
// false when it is out of int64's range.
func parseInt(lit []byte) (n int64, ok bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 19 { // JSON has no leading zeros, so this is ≥ 10¹⁹
		return 0, false
	}
	var u uint64
	for _, c := range lit {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// Skip checks the syntax of the next value of any type and moves past
// it.
func (d *Decoder) Skip() error {
	switch c := d.space(); {
	case c == '{':
		return d.Object(func([]byte) error { return d.Skip() })
	case c == '[':
		return d.array(d.Skip)
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}

// Isolated decodes the next value with decode, for a value whose
// decoding may fail on its own: when decode fails, the cursor goes
// back to the start of the value and skips it, checking only its
// syntax, and decode's error comes back as failed. err is a syntax
// error, which fails the whole input.
func (d *Decoder) Isolated(decode func() error) (failed, err error) {
	pos, depth := d.pos, d.depth
	failed = decode()
	if failed == nil {
		return nil, nil
	}
	d.pos, d.depth = pos, depth
	return failed, d.Skip()
}

// ReadAll reads r to EOF into a buffer that starts with room for
// sizeHint bytes, so a body of known length is read without growing.
func ReadAll(r io.Reader, sizeHint int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(max(sizeHint, 0) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// space skips whitespace and returns the next byte, or 0 at the end of
// the input. It is small enough to inline at every token.
func (d *Decoder) space() byte {
	i, data := d.pos, d.data
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || !isSpace(c) {
			d.pos = i
			return c
		}
	}
	d.pos = i
	return 0
}

// isSpace reports whether c is JSON whitespace, given c <= ' '.
func isSpace(c byte) bool {
	return uint64(1)<<c&(1<<' '|1<<'\t'|1<<'\n'|1<<'\r') != 0
}

// enter consumes the '{' or '[' at the cursor, one nesting level down.
func (d *Decoder) enter() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++
	return nil
}

// leave consumes the '}' or ']' at the cursor, one nesting level up.
func (d *Decoder) leave() error {
	d.depth--
	d.pos++
	return nil
}

// literal consumes the literal word, which the cursor's byte begins.
func (d *Decoder) literal(word string) error {
	for i := 1; i < len(word); i++ {
		if d.pos+i >= len(d.data) {
			d.pos = len(d.data)
			return d.syntax("")
		}
		if d.data[d.pos+i] != word[i] {
			d.pos += i
			return d.syntax("in literal " + word)
		}
	}
	d.pos += len(word)
	return nil
}

// mismatch is the error for a value at the cursor that cannot decode
// as want: a syntax error when no value starts there, else a type
// error.
func (d *Decoder) mismatch(want string) error {
	var got string
	switch c := d.space(); {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s at offset %d", got, want, d.pos)
}

// syntax returns the syntax error for the byte at the cursor.
func (d *Decoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return &SyntaxError{Offset: d.pos, msg: "unexpected end of JSON input"}
	}
	msg := "invalid character " + strconv.QuoteRune(rune(d.data[d.pos]))
	if context != "" {
		msg += " " + context
	}
	return &SyntaxError{Offset: d.pos, msg: msg}
}

// number consumes a JSON number and reports whether it is integral
// (no fraction, no exponent).
func (d *Decoder) number() (integral bool, err error) {
	b := d.data
	i := d.pos
	if b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		d.pos = i
		return false, d.syntax("")
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.pos = i
		return false, d.syntax("in numeric literal")
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		if i++; i >= len(b) || b[i] < '0' || b[i] > '9' {
			d.pos = i
			return false, d.syntax("after decimal point in numeric literal")
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			d.pos = i
			return false, d.syntax("in exponent of numeric literal")
		}
		i = digits(b, i)
	}
	d.pos = i
	return integral, nil
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str consumes the string at the cursor and returns its contents: a
// subslice of the input when it is plain printable ASCII, else an
// unquoted copy.
func (d *Decoder) str() ([]byte, error) {
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(start)
		}
	}
	d.pos = len(d.data)
	return nil, d.syntax("")
}

// unquote decodes the string whose contents start at start the way
// encoding/json does: escapes resolved, surrogate pairs joined, and
// invalid UTF-8 or an unpaired surrogate replaced by U+FFFD.
func (d *Decoder) unquote(start int) ([]byte, error) {
	b := d.data
	out := make([]byte, 0, 2*utf8.UTFMax)
	i := start
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c == '\\':
			if i++; i >= len(b) {
				d.pos = i
				return nil, d.syntax("")
			}
			switch b[i] {
			case '"', '\\', '/':
				out = append(out, b[i])
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, n := hex4(b[i+1:])
				if n < 4 {
					d.pos = i + 1 + n
					return nil, d.syntax("in \\u hexadecimal character escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// Join a pair only when a second \uXXXX follows at once.
					r2, n2 := rune(-1), 0
					if i+2 < len(b) && b[i+1] == '\\' && b[i+2] == 'u' {
						r2, n2 = hex4(b[i+3:])
					}
					if dec := utf16.DecodeRune(r, r2); n2 == 4 && dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				d.pos = i
				return nil, d.syntax("in string escape code")
			}
			i++
		case c < ' ':
			d.pos = i
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.pos = len(b)
	return nil, d.syntax("")
}

// hex4 decodes up to four hex digits at the start of b and returns
// the rune and how many digits were valid.
func hex4(b []byte) (rune, int) {
	var r rune
	for n := 0; n < 4; n++ {
		if n >= len(b) {
			return r, n
		}
		c := b[n]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return r, n
		}
		r = r<<4 | rune(c)
	}
	return r, 4
}
