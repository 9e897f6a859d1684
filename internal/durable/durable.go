// Package durable owns the on-disk log format every append-only store in
// the repository shares, its one recovery rule, and the one atomic
// whole-file writer. The flight archive's segments and the fleet
// coordinator's journal are both logs of frames, one per line:
//
//	<crc32-ieee of the payload, 8 lowercase hex digits> <payload>\n
//
// where the payload is one JSON document without a newline.
//
// The recovery rule is the same for every log. A final line without its
// newline is a torn append: readers drop it and a reopening writer
// truncates it. Any complete line that fails its frame check or its payload
// decoder is corruption: an ErrCorrupt-wrapped error naming the line's byte
// offset, and nothing after it is replayed.
package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// A frame's header is its CRC prefix: 8 hex digits and a space.
const (
	crcHexLen = 8
	headerLen = crcHexLen + 1
)

// ErrCorrupt marks a complete line that fails its frame check or its
// payload decoder.
var ErrCorrupt = errors.New("durable: corrupt record")

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

// Begin appends a frame header with a placeholder CRC to dst. The caller
// appends the payload and its newline after it, then patches the CRC in with
// Seal.
//
//air:hotpath
//air:allow(alloc): the header lands in the caller's staging buffer; the archive sink checks its remaining capacity before each frame
func Begin(dst []byte) []byte {
	return append(dst, "00000000 "...)
}

// Seal patches the CRC of frame's payload into its header. frame is one
// whole frame: a Begin header, the payload and its newline.
//
//air:hotpath
func Seal(frame []byte) {
	crc := crc32.ChecksumIEEE(frame[headerLen : len(frame)-1]) //air:allow(call): table-driven stdlib CRC over the staged bytes, allocation-free
	for i := crcHexLen - 1; i >= 0; i-- {
		frame[i] = hexDigits[crc&0xF]
		crc >>= 4
	}
}

// Payload is the frame check: it validates one frame line, without its
// newline, and returns the payload. Any violation is ErrCorrupt-wrapped.
func Payload(line []byte) ([]byte, error) {
	if len(line) < headerLen || line[crcHexLen] != ' ' {
		return nil, fmt.Errorf("%w: short or unframed line", ErrCorrupt)
	}
	var want uint32
	for _, c := range line[:crcHexLen] {
		d := hexValue[c]
		if d > 0xf {
			return nil, fmt.Errorf("%w: bad crc digit %q", ErrCorrupt, c)
		}
		want = want<<4 | uint32(d)
	}
	payload := line[headerLen:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (want %08x, got %08x)", ErrCorrupt, want, got)
	}
	return payload, nil
}

// LineReader reads newline-terminated lines without allocating per line: a
// line is a slice of the bufio buffer, or of the reused overflow buffer
// when it outgrows bufio's.
type LineReader struct {
	br   *bufio.Reader
	over []byte
}

// NewLineReader returns a LineReader over r; r may be nil until Reset.
func NewLineReader(r io.Reader) *LineReader {
	return &LineReader{br: bufio.NewReader(r)}
}

// Reset discards any buffered input and reads from r, keeping the buffers.
func (l *LineReader) Reset(r io.Reader) { l.br.Reset(r) }

// Line returns the next line including its newline, as bufio.Reader's
// ReadBytes does: at the end of input it returns the unterminated rest (or
// nothing) with the error. The slice is valid until the next call.
func (l *LineReader) Line() ([]byte, error) {
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

// Walk reads the frames of r from its start under the recovery rule,
// calling decode with each payload and its frame's byte offset, and returns
// the length of the valid prefix: every complete line. A torn final line is
// left out; a complete line that fails the frame check or that decode
// rejects ends the walk with an ErrCorrupt-wrapped error naming its offset.
// Any other error is a read failure.
func Walk(r io.Reader, decode func(payload []byte, offset int64) error) (int64, error) {
	lr := NewLineReader(r)
	var valid int64
	for {
		line, err := lr.Line()
		if err == io.EOF {
			return valid, nil
		}
		if err != nil {
			return valid, err
		}
		payload, err := Payload(line[:len(line)-1])
		if err == nil {
			if err = decode(payload, valid); err != nil {
				err = fmt.Errorf("%w: %w", ErrCorrupt, err)
			}
		}
		if err != nil {
			return valid, fmt.Errorf("byte offset %d: %w", valid, err)
		}
		valid += int64(len(line))
	}
}

// Recover walks f from its start (see Walk), truncates a torn tail and
// leaves f positioned at the end of the valid prefix, ready to append. It
// returns the valid prefix's length.
func Recover(f *os.File, decode func(payload []byte, offset int64) error) (int64, error) {
	valid, err := Walk(f, decode)
	if err != nil {
		return valid, err
	}
	if err := f.Truncate(valid); err != nil {
		return valid, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return valid, err
	}
	return valid, nil
}

// Log is an append-only log of JSON records, one frame each, synced per
// record so an appended record survives a crash at any instant.
type Log struct {
	f   *os.File
	buf []byte // the frame being appended, reused across records
}

// OpenLog opens the log at path, creating it if absent, replays each
// record's payload through decode in order, and returns the log ready to
// append. A torn tail is truncated; corruption is an error.
func OpenLog(path string, decode func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := Recover(f, func(payload []byte, _ int64) error { return decode(payload) }); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes payload, one encoded JSON record, as one frame and syncs
// the file. A payload holding a newline would split its frame and is
// refused.
func (l *Log) Append(payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return errors.New("durable: record payload holds a newline")
	}
	l.buf = append(append(Begin(l.buf[:0]), payload...), '\n')
	Seal(l.buf)
	//air:allow(durable): Append IS the log's framing encoder; buf holds one sealed frame, synced below
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile atomically and durably replaces path with data: it writes a
// temporary file beside path, syncs it, renames it over path and syncs the
// parent directory, so a crash leaves the old contents or the new, never a
// torn file, and once WriteFile returns the new contents survive a crash.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// The rename lives in the directory: until the directory is synced, a
	// power loss can undo it.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
