package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"air/internal/model"
	"air/internal/tick"
)

// plainRecord is Record without its MarshalJSON, so encoding/json renders it
// by reflection: the reference AppendRecord must reproduce byte for byte.
type plainRecord Record

// FuzzAppendRecord checks the spine's one encoder against encoding/json on
// every field, escapes included.
func FuzzAppendRecord(f *testing.F) {
	f.Add(int64(150), int(KindScheduleSwitch), 0, "", "", "schedule 1 -> 2", int64(0), "", "", "")
	f.Add(int64(-7), int(KindHMReport), -3, "P<1>", "a&b", "x y z", int64(-20),
		"DEADLINE_MISSED", "PROCESS", "RESTART_PROCESS")
	f.Add(int64(-9223372036854775808), 0, 1, "\xff\xfe", "ok\xc3", "\b\f\n\r\t\x00\x01\x1f\x7f", int64(9223372036854775807), "\"q\"", `back\slash`, "é 漢")
	f.Add(int64(0), 999, 0, "<script>", "</script>", "&amp;", int64(1), "‧‪", "\xed\xa0\x80", "\xf4\x90\x80\x80")
	f.Fuzz(func(t *testing.T, tm int64, kind, core int, part, proc, detail string, lat int64, code, level, action string) {
		e := Event{
			Time: tick.Ticks(tm), Kind: Kind(kind), Core: core,
			Partition: model.PartitionName(part), Process: proc, Detail: detail,
			Latency: tick.Ticks(lat), Code: code, Level: level, Action: action,
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(plainRecord(ToRecord(e))); err != nil {
			t.Fatal(err)
		}
		if got := AppendRecord(nil, e); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendRecord:\n got %q\nwant %q", got, want.Bytes())
		}
		// A record embedded in a larger document reads like its line.
		embedded, err := json.Marshal(ToRecord(e))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(embedded, '\n'), want.Bytes()) {
			t.Fatalf("MarshalJSON:\n got %q\nwant %q", embedded, want.Bytes())
		}
	})
}

func TestJSONLSinkEmitAllocFree(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	e := Event{Time: 7, Kind: KindHMReport, Partition: "P1", Process: "ctl",
		Detail: "deadline <100> missed", Code: "DEADLINE_MISSED", Level: "PROCESS", Action: "RESTART_PROCESS"}
	sink.Emit(e) // grows the reused line buffer once
	if n := testing.AllocsPerRun(100, func() { sink.Emit(e) }); n != 0 {
		t.Fatalf("JSONLSink.Emit allocates %.1f times per event", n)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}
