package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Parser reads one JSON document in the form the writers produce, left to
// right. The caller drives it in the encoder's key order: Object, then
// Field for each member that may come next and a value method for its
// value, then End. The first failure sticks: later steps return zero
// values, and Finish reports it with its byte offset.
//
// Members the encoder omits when empty have their own value methods
// (NonzeroInt, NonemptyStr, True, ...): the encoder never writes their
// zero value, so the Parser does not accept it.
type Parser struct {
	b   []byte
	i   int
	err error
	u64 []uint64 // reused by NonemptyUints
}

// NewParser returns a parser over b.
func NewParser(b []byte) Parser { return Parser{b: b} }

// fail records a failure at the current offset, unless one is recorded.
func (p *Parser) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("%s at byte %d", what, p.i)
	}
}

// Finish reports the first failure, or bytes left over after the document.
func (p *Parser) Finish() error {
	if p.err == nil && p.i != len(p.b) {
		p.fail("trailing bytes")
	}
	return p.err
}

// Optional consumes raw if the document carries it next.
func (p *Parser) Optional(raw string) bool {
	if p.err != nil || len(p.b)-p.i < len(raw) || string(p.b[p.i:p.i+len(raw)]) != raw {
		return false
	}
	p.i += len(raw)
	return true
}

// Want consumes raw, which the form requires next.
func (p *Parser) Want(raw string) {
	if !p.Optional(raw) {
		p.fail("want " + raw)
	}
}

// Object consumes an object's opening brace.
func (p *Parser) Object() { p.Want("{") }

// End consumes an object's closing brace. A member the caller did not ask
// for next — unknown, repeated or out of order — fails here.
func (p *Parser) End() { p.Want("}") }

// Field consumes the member key `"name":` (quotes and colon included) if
// it comes next, with the comma before it unless it is the object's first
// member.
func (p *Parser) Field(key string) bool {
	if p.err != nil {
		return false
	}
	if p.b[p.i-1] == '{' {
		return p.Optional(key)
	}
	if len(p.b)-p.i < 1+len(key) || p.b[p.i] != ',' || string(p.b[p.i+1:p.i+1+len(key)]) != key {
		return false
	}
	p.i += 1 + len(key)
	return true
}

// Null consumes null if it comes next.
func (p *Parser) Null() bool { return p.Optional("null") }

// array consumes an array's opening bracket.
func (p *Parser) array() { p.Want("[") }

// next reports whether another element of an array (close ']') or member
// of a map (close '}') follows, consuming the comma before it; at the close
// it consumes the close and reports false.
func (p *Parser) next(close byte) bool {
	if p.err != nil {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == close {
		p.i++
		return false
	}
	if c := p.b[p.i-1]; c == '[' || c == '{' {
		return true
	}
	if p.i < len(p.b) && p.b[p.i] == ',' {
		p.i++
		return true
	}
	p.fail("want , or " + string(close))
	return false
}

// Int64 consumes an integer as strconv.AppendInt writes it: an optional
// minus, no leading zero, no "-0", within int64.
func (p *Parser) Int64() int64 {
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	u := p.magnitude(neg, limit)
	if neg {
		return -int64(u-1) - 1 // u may be 1<<63
	}
	return int64(u)
}

// Int consumes an integer that fits an int.
func (p *Parser) Int() int {
	v := p.Int64()
	if int64(int(v)) != v {
		p.fail("integer overflows int")
		return 0
	}
	return int(v)
}

// Uint64 consumes an unsigned integer as strconv.AppendUint writes it.
func (p *Parser) Uint64() uint64 { return p.magnitude(false, math.MaxUint64) }

// magnitude consumes an integer's digits, after its minus when neg:
// canonical — no leading zero, no "-0" — and at most limit.
func (p *Parser) magnitude(neg bool, limit uint64) uint64 {
	if p.err != nil {
		return 0
	}
	b, i := p.b, p.i
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (limit-d)/10 {
			p.fail("integer out of range")
			return 0
		}
		u = u*10 + d
	}
	switch {
	case i == start:
		p.fail("want an integer")
		return 0
	case b[start] == '0' && (i-start > 1 || neg):
		p.fail("non-canonical integer")
		return 0
	}
	p.i = i
	return u
}

// Float64 consumes a JSON number and returns what encoding/json decodes it
// to as a float64.
func (p *Parser) Float64() float64 {
	if p.err != nil {
		return 0
	}
	b, i := p.b, p.i
	digits := func() bool {
		from := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		p.fail("want a number")
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			p.fail("want a fraction")
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			p.fail("want an exponent")
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		p.fail("number out of range")
		return 0
	}
	p.i = i
	return f
}

// Bool consumes true or false.
func (p *Parser) Bool() bool {
	if p.Optional("true") {
		return true
	}
	p.Want("false")
	return false
}

// StrBytes consumes a string and returns its value's bytes: the bytes
// between the quotes when they hold no backslash, control byte or non-ASCII
// byte (so the slice aliases the document), else the value encoding/json
// decodes — escapes resolved, invalid UTF-8 and unpaired surrogates turned
// into U+FFFD — in a fresh slice.
func (p *Parser) StrBytes() []byte {
	if p.err != nil {
		return nil
	}
	b, i := p.b, p.i
	if i >= len(b) || b[i] != '"' {
		p.fail("want a string")
		return nil
	}
	plain := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			body := b[i+1 : j]
			if !plain {
				var ok bool
				if body, ok = unquote(body); !ok {
					p.fail("invalid string")
					return nil
				}
			}
			p.i = j + 1
			return body
		case c == '\\':
			plain = false
			j++ // an escaped byte never closes the string
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	p.fail("unterminated string")
	return nil
}

// Str consumes a string.
func (p *Parser) Str() string { return string(p.StrBytes()) }

// unquote decodes a string body that holds an escape, a control byte or a
// non-ASCII byte by encoding/json's rules. Control bytes and escapes JSON
// does not define fail.
func unquote(s []byte) ([]byte, bool) {
	out := make([]byte, 0, len(s)+utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			if r+1 == len(s) {
				return nil, false
			}
			switch e := s[r+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
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
				rr := hex4(s[r+2:])
				if rr < 0 {
					return nil, false
				}
				r += 6
				if utf16.IsSurrogate(rr) {
					// Only a \u escape right after it can complete the pair.
					if len(s)-r >= 6 && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							r += 6
							continue
						}
					}
					rr = utf8.RuneError
				}
				out = utf8.AppendRune(out, rr)
				continue
			default:
				return nil, false
			}
			r += 2
		case c < 0x20:
			return nil, false
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out, true
}

// hex4 reads the four hex digits of a \u escape, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
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
		r = r<<4 | rune(c)
	}
	return r
}

// Omitempty fails when an omitempty member carries the zero value the
// encoder leaves out.
func (p *Parser) Omitempty(zero bool) {
	if zero {
		p.fail("zero value of an omitempty member")
	}
}

// NonzeroInt consumes the int of an omitempty member.
func (p *Parser) NonzeroInt() int {
	v := p.Int()
	p.Omitempty(v == 0)
	return v
}

// NonzeroInt64 consumes the int64 of an omitempty member.
func (p *Parser) NonzeroInt64() int64 {
	v := p.Int64()
	p.Omitempty(v == 0)
	return v
}

// NonzeroUint64 consumes the uint64 of an omitempty member.
func (p *Parser) NonzeroUint64() uint64 {
	v := p.Uint64()
	p.Omitempty(v == 0)
	return v
}

// NonemptyStr consumes the string of an omitempty member.
func (p *Parser) NonemptyStr() string {
	v := p.StrBytes()
	p.Omitempty(len(v) == 0)
	return string(v)
}

// True consumes the true of an omitempty bool member.
func (p *Parser) True() bool {
	p.Want("true")
	return p.err == nil
}

// NonemptyUints consumes the []uint64 of an omitempty member: an array of
// at least one element.
func (p *Parser) NonemptyUints() []uint64 {
	p.array()
	p.u64 = p.u64[:0]
	for p.next(']') {
		p.u64 = append(p.u64, p.Uint64())
	}
	if p.err != nil {
		return nil
	}
	p.Omitempty(len(p.u64) == 0)
	return append([]uint64(nil), p.u64...)
}

// mapKey consumes a map member's key and colon. Keys strictly increase, as
// encoding/json sorts them, so none repeats.
func (p *Parser) mapKey(last []byte, first bool) []byte {
	k := p.StrBytes()
	if !first && string(k) <= string(last) {
		p.fail("map keys out of order")
	}
	p.Want(":")
	return k
}

// IntMap consumes a map[string]int: null, or an object keyed in order.
func (p *Parser) IntMap() map[string]int {
	if p.Null() {
		return nil
	}
	p.Object()
	m := map[string]int{}
	var k []byte
	for first := true; p.next('}'); first = false {
		k = p.mapKey(k, first)
		m[string(k)] = p.Int()
	}
	return m
}

// NonemptyUintMap consumes the map[string]uint64 of an omitempty member:
// an object of at least one member, keyed in order.
func (p *Parser) NonemptyUintMap() map[string]uint64 {
	p.Object()
	m := map[string]uint64{}
	var k []byte
	for first := true; p.next('}'); first = false {
		k = p.mapKey(k, first)
		m[string(k)] = p.Uint64()
	}
	p.Omitempty(len(m) == 0)
	return m
}

// Unmarshal decodes the next value with encoding/json into v: the values
// the hand-written codecs leave to it. Outside its strings the value must
// be compact, as everything the Parser reads is.
func (p *Parser) Unmarshal(v any) {
	raw := p.value()
	if p.err != nil {
		return
	}
	if err := json.Unmarshal(raw, v); err != nil {
		p.fail(err.Error())
	}
}

// value consumes one value without decoding it: a balanced run of
// brackets and braces, strings skipped whole, up to the comma or close
// that ends it.
func (p *Parser) value() []byte {
	start, depth := p.i, 0
	for p.i < len(p.b) && p.err == nil {
		switch p.b[p.i] {
		case '"':
			p.StrBytes()
			if depth == 0 {
				return p.b[start:p.i]
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return p.b[start:p.i]
			}
			if depth--; depth == 0 {
				p.i++
				return p.b[start:p.i]
			}
		case ',':
			if depth == 0 {
				return p.b[start:p.i]
			}
		case ' ', '\t', '\n', '\r':
			p.fail("whitespace")
		}
		p.i++
	}
	if depth > 0 {
		p.fail("unterminated value")
	}
	return p.b[start:p.i]
}

// ParseArray reads what AppendArray writes: null is a nil slice, [] an
// empty one, each element read into place by elem.
func ParseArray[T any](p *Parser, elem func(*Parser, *T)) []T {
	if p.Null() {
		return nil
	}
	p.array()
	vs := []T{}
	for p.next(']') {
		var zero T
		vs = append(vs, zero)
		elem(p, &vs[len(vs)-1])
	}
	return vs
}
