package archive

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

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

// hexValue maps each byte of hexDigits to its value and every other byte to
// 0xff: a table, because a branch per digit class mispredicts on CRC digits.
var hexValue = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := 0; i < len(hexDigits); i++ {
		t[hexDigits[i]] = byte(i)
	}
	return t
}()

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
// decodes the payload through obs.ParseRecord, the one decoder of the wire
// form. Any violation — short line, bad hex, CRC mismatch, a payload not in
// the pinned form — is reported as errFrame-wrapped so callers can
// distinguish a torn tail from an I/O failure.
func decodeFrame(line []byte) (e obs.Event, err error) {
	if len(line) < frameMinLen || line[crcHexLen] != ' ' {
		return e, fmt.Errorf("%w: short or unframed line", errFrame)
	}
	var want uint32
	for _, c := range line[:crcHexLen] {
		d := hexValue[c]
		if d > 0xf {
			return e, fmt.Errorf("%w: bad crc digit %q", errFrame, c)
		}
		want = want<<4 | uint32(d)
	}
	body := line[crcHexLen+1:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return e, fmt.Errorf("%w: crc mismatch (want %08x, got %08x)", errFrame, want, got)
	}
	if e, err = obs.ParseRecord(body); err != nil {
		return e, fmt.Errorf("%w: %v", errFrame, err)
	}
	return e, nil
}

// lineReader reads newline-terminated frames without allocating per line:
// a line is a slice of the bufio buffer, or of the reused overflow buffer
// when it outgrows bufio's.
type lineReader struct {
	br   *bufio.Reader
	over []byte
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReader(r)}
}

// line returns the next line including its newline, as bufio.Reader's
// ReadBytes does: at the end of input it returns the unterminated rest (or
// nothing) with the error. The slice is valid until the next call.
func (l *lineReader) line() ([]byte, error) {
	line, err := l.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	l.over = append(l.over[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = l.br.ReadSlice('\n')
		l.over = append(l.over, line...)
	}
	return l.over, err
}

// validPrefix walks the frames of a segment from its start, calling fn with
// each valid record and its frame's offset, up to the first torn or corrupt
// frame, and returns the valid prefix's length. Only a read failure other
// than the end of the file is an error.
func validPrefix(r io.Reader, fn func(e obs.Event, offset int64)) (int64, error) {
	lr := newLineReader(r)
	var valid int64
	for {
		line, err := lr.line()
		if err != nil {
			if err == io.EOF {
				return valid, nil // a line without its newline is a torn write
			}
			return valid, err
		}
		e, ferr := decodeFrame(line[:len(line)-1])
		if ferr != nil {
			return valid, nil // a torn or corrupt frame ends the history
		}
		fn(e, valid)
		valid += int64(len(line))
	}
}
