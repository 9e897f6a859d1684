package archive

import (
	"fmt"

	"air/internal/durable"
	"air/internal/obs"
)

// frameSlack bounds the fixed part of a frame: CRC prefix, every field name,
// braces/commas/quotes, the kind name and three 20-digit integers.
const frameSlack = 256

// frameBound returns a worst-case byte bound for one event's frame: six
// bytes per string byte, obs.AppendRecord's \u00XX worst case.
//
//air:hotpath
func frameBound(e obs.Event) int {
	return frameSlack + 6*(len(e.Partition)+len(e.Process)+len(e.Detail)+
		len(e.Code)+len(e.Level)+len(e.Action))
}

// appendFrame appends one event as a durable frame whose payload is
// obs.AppendRecord's line.
//
//air:hotpath
func appendFrame(dst []byte, e obs.Event) []byte {
	mark := len(dst)
	dst = obs.AppendRecord(durable.Begin(dst), e)
	durable.Seal(dst[mark:])
	return dst
}

// decodeFrame checks one frame line (without its trailing newline) and
// decodes the payload through obs.ParseRecord, the one decoder of the wire
// form. Any violation — short line, bad hex, CRC mismatch, a payload not in
// the pinned form — is durable.ErrCorrupt-wrapped.
func decodeFrame(line []byte) (e obs.Event, err error) {
	payload, err := durable.Payload(line)
	if err != nil {
		return e, err
	}
	if e, err = obs.ParseRecord(payload); err != nil {
		return e, fmt.Errorf("%w: %w", durable.ErrCorrupt, err)
	}
	return e, nil
}
