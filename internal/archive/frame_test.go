package archive

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"air/internal/durable"
	"air/internal/obs"
)

// frameSeeds are events whose frames exercise every field and escape class.
var frameSeeds = []obs.Event{
	{Time: 150, Kind: obs.KindScheduleSwitch, Detail: "schedule 1 -> 2"},
	{Time: 240, Kind: obs.KindHMReport, Core: 1, Partition: "P1", Process: "faulty",
		Detail: "deadline <220> & more ", Latency: 20,
		Code: "DEADLINE_MISSED", Level: "PROCESS", Action: "RESTART_PROCESS"},
	{Time: -1, Kind: obs.KindPortSend, Partition: "P2", Process: "hk_out", Detail: "\x01\u2028\t\""},
}

// FuzzDecodeFrame feeds arbitrary lines — raw, and re-framed with a valid
// CRC so the JSON decoder is reached — to decodeFrame: every rejection must
// be durable.ErrCorrupt-wrapped, and nothing may panic.
func FuzzDecodeFrame(f *testing.F) {
	for _, e := range frameSeeds {
		line := appendFrame(nil, e)
		line = line[:len(line)-1]
		f.Add(line, false)
		f.Add(line[:len(line)/2], false)
		f.Add(line[bytes.IndexByte(line, ' ')+1:], true)
	}
	f.Add([]byte("0000000g {}"), false)
	f.Add([]byte(`{"t":"x"}`), true)
	f.Add([]byte(`{"t":1`), true)
	f.Fuzz(func(t *testing.T, line []byte, reframe bool) {
		if reframe {
			line = append([]byte(fmt.Sprintf("%08x ", crc32.ChecksumIEEE(line))), line...)
		}
		if _, err := decodeFrame(line); err != nil && !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("decodeFrame(%q) = %v, not ErrCorrupt-wrapped", line, err)
		}
	})
}

func TestDecodeFrameRejectsTruncation(t *testing.T) {
	for _, e := range frameSeeds {
		line := appendFrame(nil, e)
		line = line[:len(line)-1]
		got, err := decodeFrame(line)
		if err != nil {
			t.Fatalf("whole frame rejected: %v", err)
		}
		if got != e {
			t.Fatalf("decoded %+v, want %+v", got, e)
		}
		for cut := 0; cut < len(line); cut++ {
			if _, err := decodeFrame(line[:cut]); !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("frame cut at %d/%d: err = %v, want ErrCorrupt", cut, len(line), err)
			}
		}
	}
}

// TestEmitEscapeHeavyEventAllocFree pins frameBound to the encoder's worst
// case: an event whose Detail is all control bytes (six encoded bytes each)
// arriving when the staging buffer is nearly full must roll the buffer
// first, never grow it.
func TestEmitEscapeHeavyEventAllocFree(t *testing.T) {
	s, err := Open(t.TempDir(), Options{BufBytes: 4096, SegmentRecords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heavy := obs.Event{Time: 1, Kind: obs.KindHMReport, Partition: "P1", Detail: strings.Repeat("\x01", 200)}
	heavyLen := len(appendFrame(nil, heavy))
	filler := obs.Event{Time: 1, Kind: obs.KindPartitionSwitch, Partition: "P1"}
	fill := func() {
		// Leave less room than the heavy frame needs, but more than a
		// bound that counted two bytes per string byte.
		for cap(s.buf)-len(s.buf) >= heavyLen {
			s.Emit(filler)
		}
	}
	if heavyLen > frameBound(heavy) {
		t.Fatalf("frame of %d B exceeds its bound of %d B", heavyLen, frameBound(heavy))
	}
	fill()
	s.Emit(heavy)
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		s.Emit(heavy)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f times per escape-heavy event", allocs)
	}
	if cap(s.buf) != 4096 {
		t.Fatalf("staging buffer grew to %d B", cap(s.buf))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}
