// Package wire holds the JSON primitives every hand-written codec in the
// repository shares: the spine record (obs.AppendRecord, obs.ParseRecord),
// the flight archive's catalog parsers, and the fleet's lease completion,
// whose observation snapshots are coded beside their types in obs,
// timeline and campaign.
//
// The writers produce exactly the bytes encoding/json's Marshal writes for
// the same Go value: strings HTML-escaped and coerced to valid UTF-8,
// integers in decimal, floats in encoding/json's ES6 form, map keys sorted.
// The Parser reads that form back left to right without reflection. It is
// stricter than encoding/json — no whitespace, keys only in the order the
// caller asks for them — and whatever it accepts, encoding/json decodes to
// the same value.
package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// shortEscape maps the ASCII bytes encoding/json escapes with a backslash
// and one letter; other escaped ASCII bytes become \u00XX.
var shortEscape = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// AppendString appends s as a quoted JSON string exactly as encoding/json
// writes it with HTML escaping on (its default): <, >, &, U+2028, U+2029
// and control bytes escaped, invalid UTF-8 replaced by \ufffd. No input
// byte encodes to more than six bytes.
//
//air:hotpath
//air:allow(alloc): at most six bytes per input byte; hot callers append inside a reservation of that size
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if e := shortEscape[c]; e != 0 {
				dst = append(dst, '\\', e)
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form only below 1e-6
// or from 1e21 in magnitude, with a one-digit negative exponent unpadded.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// Encoder appends one JSON document to a buffer. Keys and punctuation are
// the caller's (Raw); values go through the writers above. Its only
// refusal is encoding/json's: a non-finite float, or a value Marshal
// itself fails on, sets the error that Bytes reports.
type Encoder struct {
	buf  []byte
	err  error
	keys []string // reused to sort map keys
}

// NewEncoder returns an encoder appending to dst.
func NewEncoder(dst []byte) *Encoder { return &Encoder{buf: dst} }

// Bytes returns the document and the first refusal, if any.
func (e *Encoder) Bytes() ([]byte, error) { return e.buf, e.err }

// Raw appends s as it stands: keys with their colon, commas, braces.
func (e *Encoder) Raw(s string) { e.buf = append(e.buf, s...) }

// Str appends a string value.
func (e *Encoder) Str(s string) { e.buf = AppendString(e.buf, s) }

// Int appends a signed integer value.
func (e *Encoder) Int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

// Uint appends an unsigned integer value.
func (e *Encoder) Uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

// Bool appends true or false.
func (e *Encoder) Bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// Float appends a float64 value; NaN and ±Inf are refused.
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.fail(fmt.Errorf("wire: unsupported value: %v", f))
		return
	}
	e.buf = AppendFloat(e.buf, f)
}

// OmitemptyInt appends the member key (with its comma and colon) and v,
// unless v is zero, as encoding/json writes an omitempty integer.
func (e *Encoder) OmitemptyInt(key string, v int64) {
	if v != 0 {
		e.Raw(key)
		e.Int(v)
	}
}

// OmitemptyUint is OmitemptyInt for an unsigned integer.
func (e *Encoder) OmitemptyUint(key string, v uint64) {
	if v != 0 {
		e.Raw(key)
		e.Uint(v)
	}
}

// Uints appends a []uint64 value as a JSON array (null when nil).
func (e *Encoder) Uints(vs []uint64) {
	if vs == nil {
		e.Raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = strconv.AppendUint(e.buf, v, 10)
	}
	e.buf = append(e.buf, ']')
}

// IntMap appends a map[string]int value: null when nil, else an object
// with its keys sorted.
func (e *Encoder) IntMap(m map[string]int) {
	if m == nil {
		e.Raw("null")
		return
	}
	e.buf = append(e.buf, '{')
	e.keys = sortedKeys(e.keys, m)
	for i, k := range e.keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(AppendString(e.buf, k), ':')
		e.buf = strconv.AppendInt(e.buf, int64(m[k]), 10)
	}
	e.buf = append(e.buf, '}')
}

// UintMap appends a map[string]uint64 value as IntMap does.
func (e *Encoder) UintMap(m map[string]uint64) {
	if m == nil {
		e.Raw("null")
		return
	}
	e.buf = append(e.buf, '{')
	e.keys = sortedKeys(e.keys, m)
	for i, k := range e.keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(AppendString(e.buf, k), ':')
		e.buf = strconv.AppendUint(e.buf, m[k], 10)
	}
	e.buf = append(e.buf, '}')
}

// sortedKeys puts m's keys in keys, in encoding/json's order.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// AppendArray appends vs as a JSON array, null when nil, each element
// written by elem.
func AppendArray[T any](e *Encoder, vs []T, elem func(*Encoder, *T)) {
	if vs == nil {
		e.Raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i := range vs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		elem(e, &vs[i])
	}
	e.buf = append(e.buf, ']')
}

// Marshal appends encoding/json's own bytes for v: the values the
// hand-written codecs leave to it.
func (e *Encoder) Marshal(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		e.fail(err)
		return
	}
	e.buf = append(e.buf, data...)
}

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}
