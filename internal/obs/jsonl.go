package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"air/internal/model"
	"air/internal/tick"
	"air/internal/wire"
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
	dst = wire.AppendString(append(dst, `,"kind":`...), r.Kind)
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
	return wire.AppendString(append(dst, key...), s)
}

// ParseRecord decodes one wire record — AppendRecord's output without its
// newline — back into its event: the exact inverse of AppendRecord and the
// one decoder of the spine wire form (ScanEvents, archive frames). It
// accepts only the form AppendRecord writes: the pinned field order and
// omitempty set, no whitespace, integers as strconv.AppendInt writes them.
// Strings decode by encoding/json's rules (wire.Parser), so escapes and
// invalid UTF-8 decode exactly as json.Unmarshal decodes them. Unknown kind
// names yield Kind 0, as in KindFromString.
func ParseRecord(b []byte) (Event, error) {
	p := wire.NewParser(b)
	p.Want(`{"t":`)
	e := Event{Time: tick.Ticks(p.Int64())}
	p.Want(`,"kind":`)
	e.Kind = kindByName[string(p.StrBytes())]
	if p.Optional(`,"core":`) {
		e.Core = p.NonzeroInt()
	}
	e.Partition = model.PartitionName(optionalStr(&p, `,"partition":`))
	e.Process = optionalStr(&p, `,"process":`)
	e.Detail = optionalStr(&p, `,"detail":`)
	if p.Optional(`,"latency":`) {
		e.Latency = tick.Ticks(p.NonzeroInt64())
	}
	e.Code = optionalStr(&p, `,"code":`)
	e.Level = optionalStr(&p, `,"level":`)
	e.Action = optionalStr(&p, `,"action":`)
	p.Want("}")
	if err := p.Finish(); err != nil {
		return Event{}, fmt.Errorf("obs: record: %w", err)
	}
	return e, nil
}

// optionalStr consumes an omitempty string field; "" when the record omits
// it.
func optionalStr(p *wire.Parser, key string) string {
	if !p.Optional(key) {
		return ""
	}
	return p.NonemptyStr()
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
