package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"air/internal/model"
	"air/internal/tick"
)

// Record is the unified JSONL wire form of an Event. Field order and the
// omitempty set are pinned by golden-file tests in internal/core: records
// written for the original twelve trace kinds are byte-identical to the
// historical trace exporter, and the new fields (core, code, level, action)
// only appear when non-zero.
type Record struct {
	Time      int64  `json:"t"`
	Kind      string `json:"kind"`
	Core      int    `json:"core,omitempty"`
	Partition string `json:"partition,omitempty"`
	Process   string `json:"process,omitempty"`
	Detail    string `json:"detail,omitempty"`
	Latency   int64  `json:"latency,omitempty"`
	Code      string `json:"code,omitempty"`
	Level     string `json:"level,omitempty"`
	Action    string `json:"action,omitempty"`
}

// ToRecord converts an event to its wire form.
//
//air:hotpath
//air:allow(alloc): Kind.String formats only an out-of-range kind; every spine kind is an array lookup
func ToRecord(e Event) Record {
	return Record{
		Time:      int64(e.Time),
		Kind:      e.Kind.String(), //air:allow(call): array-indexed kind-name lookup, allocation-free for every valid spine kind
		Core:      e.Core,
		Partition: string(e.Partition),
		Process:   e.Process,
		Detail:    e.Detail,
		Latency:   int64(e.Latency),
		Code:      e.Code,
		Level:     e.Level,
		Action:    e.Action,
	}
}

// Event converts a wire record back to an event (unknown kind names yield
// Kind 0, mirroring the historical trace reader).
func (r Record) Event() Event {
	return Event{
		Time:      tick.Ticks(r.Time),
		Kind:      KindFromString(r.Kind),
		Core:      r.Core,
		Partition: model.PartitionName(r.Partition),
		Process:   r.Process,
		Detail:    r.Detail,
		Latency:   tick.Ticks(r.Latency),
		Code:      r.Code,
		Level:     r.Level,
		Action:    r.Action,
	}
}

// MarshalJSON renders the record through the spine's one encoder, so an
// embedded record reads exactly like its JSONL line.
func (r Record) MarshalJSON() ([]byte, error) {
	return appendRecord(nil, r), nil
}

// AppendRecord appends e's wire record and a newline to dst: the one encoder
// of the spine wire form (JSONLSink, EncodeEvents, archive frames), byte-
// identical to json.NewEncoder(w).Encode(ToRecord(e)) including its escapes
// of <, >, &, U+2028/U+2029, invalid UTF-8 and control bytes. No string byte
// encodes to more than six bytes.
//
//air:hotpath
//air:allow(alloc): the newline lands inside the caller's reservation (six bytes per string byte plus the fixed fields)
func AppendRecord(dst []byte, e Event) []byte {
	return append(appendRecord(dst, ToRecord(e)), '\n')
}

// appendRecord appends r as one JSON object in the pinned field order and
// omitempty set.
//
//air:hotpath
//air:allow(alloc): every append stays inside the reservation AppendRecord documents
func appendRecord(dst []byte, r Record) []byte {
	dst = strconv.AppendInt(append(dst, `{"t":`...), r.Time, 10)
	dst = appendString(append(dst, `,"kind":`...), r.Kind)
	if r.Core != 0 {
		dst = strconv.AppendInt(append(dst, `,"core":`...), int64(r.Core), 10)
	}
	dst = appendField(dst, `,"partition":`, r.Partition)
	dst = appendField(dst, `,"process":`, r.Process)
	dst = appendField(dst, `,"detail":`, r.Detail)
	if r.Latency != 0 {
		dst = strconv.AppendInt(append(dst, `,"latency":`...), r.Latency, 10)
	}
	dst = appendField(dst, `,"code":`, r.Code)
	dst = appendField(dst, `,"level":`, r.Level)
	dst = appendField(dst, `,"action":`, r.Action)
	return append(dst, '}')
}

// appendField appends an omitempty string field: key, then s quoted.
//
//air:hotpath
//air:allow(alloc): inside the reservation AppendRecord documents
func appendField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

const hexDigits = "0123456789abcdef"

// shortEscape maps the ASCII bytes encoding/json escapes with a backslash
// and one letter; other escaped ASCII bytes become \u00XX.
var shortEscape = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// appendString appends s as a quoted JSON string exactly as encoding/json
// writes it with HTML escaping on (its default).
//
//air:hotpath
//air:allow(alloc): at most six bytes per input byte, inside the reservation AppendRecord documents
func appendString(dst []byte, s string) []byte {
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

// ParseRecord decodes one wire record — AppendRecord's output without its
// newline — back into its event: the exact inverse of AppendRecord and the
// one decoder of the spine wire form (ScanEvents, archive frames). It
// accepts only the form AppendRecord writes: the pinned field order and
// omitempty set, no whitespace, integers as strconv.AppendInt writes them.
// A string holding a backslash, a control byte or a non-ASCII byte is
// unquoted by encoding/json, so escapes and invalid UTF-8 decode exactly as
// json.Unmarshal decodes them; any other string is copied as it stands.
// Unknown kind names yield Kind 0, as in KindFromString.
func ParseRecord(b []byte) (Event, error) {
	p := recordParser{b: b}
	p.key(`{"t":`)
	e := Event{Time: tick.Ticks(p.int())}
	p.key(`,"kind":`)
	if tok, plain := p.quoted(); plain {
		e.Kind = kindByName[string(tok[1:len(tok)-1])]
	} else if tok != nil {
		e.Kind = kindByName[p.unquote(tok)]
	}
	if p.optional(`,"core":`) {
		c := p.nonzeroInt()
		if e.Core = int(c); int64(e.Core) != c {
			p.fail("core overflows int")
		}
	}
	e.Partition = model.PartitionName(p.str(`,"partition":`))
	e.Process = p.str(`,"process":`)
	e.Detail = p.str(`,"detail":`)
	if p.optional(`,"latency":`) {
		e.Latency = tick.Ticks(p.nonzeroInt())
	}
	e.Code = p.str(`,"code":`)
	e.Level = p.str(`,"level":`)
	e.Action = p.str(`,"action":`)
	p.key("}")
	if p.err == nil && p.i != len(b) {
		p.fail("trailing bytes")
	}
	if p.err != nil {
		return Event{}, p.err
	}
	return e, nil
}

// recordParser walks one wire record left to right. The first failure
// sticks: later steps return zero values, and ParseRecord reports it.
type recordParser struct {
	b   []byte
	i   int
	err error
}

func (p *recordParser) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("obs: record: %s at byte %d", what, p.i)
	}
}

// optional consumes key if the record carries it next.
func (p *recordParser) optional(key string) bool {
	if p.err != nil || len(p.b)-p.i < len(key) || string(p.b[p.i:p.i+len(key)]) != key {
		return false
	}
	p.i += len(key)
	return true
}

// key consumes a key (or delimiter) the form requires.
func (p *recordParser) key(key string) {
	if !p.optional(key) {
		p.fail("want " + key)
	}
}

// int consumes an integer as strconv.AppendInt writes it: an optional
// minus, no leading zero, no "-0", within int64.
func (p *recordParser) int() int64 {
	if p.err != nil {
		return 0
	}
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i-start == 19 { // 20 digits: past every int64
			p.fail("integer overflows int64")
			return 0
		}
		u = u*10 + uint64(b[i]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	switch {
	case i == start:
		p.fail("want an integer")
	case b[start] == '0' && (i-start > 1 || neg):
		p.fail("non-canonical integer")
	case u > limit:
		p.fail("integer overflows int64")
	}
	if p.err != nil {
		return 0
	}
	p.i = i
	if neg {
		return -int64(u-1) - 1 // u may be 1<<63
	}
	return int64(u)
}

// nonzeroInt consumes the integer of an omitempty field, which AppendRecord
// never writes as 0.
func (p *recordParser) nonzeroInt() int64 {
	v := p.int()
	if v == 0 {
		p.fail("zero value of an omitempty field")
	}
	return v
}

// quoted consumes a JSON string and returns it with its quotes, plain when
// the bytes between them hold no backslash, control byte or non-ASCII byte
// and so are the string itself. tok is nil on failure.
func (p *recordParser) quoted() (tok []byte, plain bool) {
	if p.err != nil {
		return nil, false
	}
	b, i := p.b, p.i
	if i >= len(b) || b[i] != '"' {
		p.fail("want a string")
		return nil, false
	}
	plain = true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			p.i = j + 1
			return b[i : j+1], plain
		case c == '\\':
			plain = false
			j++ // an escaped byte never closes the string
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	p.fail("unterminated string")
	return nil, false
}

// unquote decodes a quoted string by encoding/json's string rules.
func (p *recordParser) unquote(tok []byte) string {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		p.fail(err.Error())
	}
	return s
}

// str consumes an omitempty string field; "" when the record omits it.
func (p *recordParser) str(key string) string {
	if !p.optional(key) {
		return ""
	}
	tok, plain := p.quoted()
	switch {
	case tok == nil:
		return ""
	case len(tok) == 2:
		p.fail("empty omitempty string")
		return ""
	case plain:
		return string(tok[1 : len(tok)-1])
	}
	return p.unquote(tok)
}

// JSONLSink streams events to a writer as one JSON record per line, during
// the run rather than from a post-hoc copy. It buffers internally; callers
// must Flush (or Close) before reading the destination.
type JSONLSink struct {
	w    *bufio.Writer
	line []byte // reused per event, so Emit stops allocating once grown
	err  error
}

// NewJSONLSink wraps w in a streaming sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Emit writes one record line. The first write error sticks and suppresses
// further output; check it via Flush.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.line = AppendRecord(s.line[:0], e)
	_, s.err = s.w.Write(s.line)
}

// Flush drains the internal buffer and returns the first error encountered
// by the sink.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return fmt.Errorf("obs: jsonl sink: %w", s.err)
	}
	if err := s.w.Flush(); err != nil {
		s.err = err
		return fmt.Errorf("obs: jsonl sink: %w", err)
	}
	return nil
}

// EncodeEvents writes events as JSONL to w (the batch form of JSONLSink).
func EncodeEvents(w io.Writer, events []Event) error {
	s := NewJSONLSink(w)
	for _, e := range events {
		s.Emit(e)
	}
	return s.Flush()
}

// ScanEvents reads JSONL as EncodeEvents writes it — one ParseRecord record
// per line — until EOF, passing each record to fn in order as it is read,
// and names the line of a bad record. The last line's newline is optional.
func ScanEvents(r io.Reader, fn func(Event)) error {
	br := bufio.NewReader(r)
	for n := 1; ; n++ {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			e, perr := ParseRecord(bytes.TrimSuffix(line, []byte{'\n'}))
			if perr != nil {
				return fmt.Errorf("line %d: %w", n, perr)
			}
			fn(e)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// DecodeEvents collects what ScanEvents reads; on an error it returns the
// records before the bad line with it.
func DecodeEvents(r io.Reader) ([]Event, error) {
	var events []Event
	err := ScanEvents(r, func(e Event) { events = append(events, e) })
	return events, err
}
