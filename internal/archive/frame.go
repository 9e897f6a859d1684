package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"air/internal/obs"
)

// Frame layout: 8 lowercase hex digits of the IEEE CRC32 of the JSON
// payload, one space, the payload, one newline.
const (
	crcHexLen   = 8
	frameMinLen = crcHexLen + 1 + 2 // "crc {}"
)

// frameSlack bounds the fixed part of a frame: CRC prefix, every field name,
// braces/commas/quotes, the kind name and three 20-digit integers.
const frameSlack = 256

var errFrame = errors.New("archive: invalid frame")

const hexDigits = "0123456789abcdef"

// frameBound returns a worst-case byte bound for one event's frame: six
// bytes per string byte, obs.AppendRecord's \u00XX worst case.
//
//air:hotpath
func frameBound(e obs.Event) int {
	return frameSlack + 6*(len(e.Partition)+len(e.Process)+len(e.Detail)+
		len(e.Code)+len(e.Level)+len(e.Action))
}

// appendFrame appends one event as a CRC-framed record line: the CRC prefix
// plus obs.AppendRecord.
//
//air:hotpath
//air:allow(alloc): the CRC prefix lands in the caller's staging buffer, whose remaining capacity Emit checks against frameBound before the call
func appendFrame(dst []byte, e obs.Event) []byte {
	mark := len(dst)
	// Reserve the CRC prefix; the digits are patched in once the payload is
	// encoded.
	dst = append(dst, "00000000 "...)
	body := len(dst)
	dst = obs.AppendRecord(dst, e)
	crc := crc32.ChecksumIEEE(dst[body : len(dst)-1]) //air:allow(call): table-driven stdlib CRC over the staged bytes, allocation-free
	for i := crcHexLen - 1; i >= 0; i-- {
		dst[mark+i] = hexDigits[crc&0xF]
		crc >>= 4
	}
	return dst
}

// decodeFrame validates one frame line (without its trailing newline) and
// decodes the payload. Any violation — short line, bad hex, CRC mismatch,
// malformed JSON — is reported as errFrame-wrapped so callers can
// distinguish a torn tail from an I/O failure.
func decodeFrame(line []byte) (obs.Record, error) {
	var rec obs.Record
	if len(line) < frameMinLen || line[crcHexLen] != ' ' {
		return rec, fmt.Errorf("%w: short or unframed line", errFrame)
	}
	var want uint32
	for i := 0; i < crcHexLen; i++ {
		c := line[i]
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return rec, fmt.Errorf("%w: bad crc digit %q", errFrame, c)
		}
		want = want<<4 | d
	}
	body := line[crcHexLen+1:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return rec, fmt.Errorf("%w: crc mismatch (want %08x, got %08x)", errFrame, want, got)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("%w: %v", errFrame, err)
	}
	return rec, nil
}
