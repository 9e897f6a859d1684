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
		// ParseRecord reads the line back exactly as encoding/json does.
		line := want.Bytes()[:want.Len()-1]
		got, err := ParseRecord(line)
		if err != nil {
			t.Fatalf("ParseRecord(%q): %v", line, err)
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if got != rec.Event() {
			t.Fatalf("ParseRecord(%q):\n got %+v\nwant %+v", line, got, rec.Event())
		}
	})
}

// FuzzParseRecord feeds arbitrary bytes to the spine's one decoder: any
// input it accepts, encoding/json must accept as well and decode to the
// same event.
func FuzzParseRecord(f *testing.F) {
	for _, s := range []string{
		`{"t":5200,"kind":"HM_REPORT","core":1,"partition":"P1","process":"faulty","detail":"d","latency":3,"code":"C","level":"L","action":"A"}`,
		`{"t":-0,"kind":"PORT_SEND"}`,
		`{"t":0,"kind":"PORT_SEND","latency":-0}`,
		`{"t":007,"kind":"PORT_SEND"}`,
		`{"t":9223372036854775807,"kind":"PORT_SEND","core":-9223372036854775808,"latency":-9223372036854775808}`,
		`{"t":9223372036854775808,"kind":"PORT_SEND"}`,
		`{"t":-9223372036854775809,"kind":"PORT_SEND"}`,
		`{"t":1,"kind":"PORT_SEND","detail":"\ud800"}`,
		`{"t":1,"kind":"PORT_SEND","detail":"\udc00\ud800\u0041"}`,
		"{\"t\":1,\"kind\":\"PORT_SEND\",\"detail\":\"\xff\xfe\xed\xa0\x80\"}",
		"{\"t\":1,\"kind\":\"PORT_SEND\",\"detail\":\"\x01\"}",
		`{"t":1,"kind":"PORT_SEND","process":"a\/b"}`,
		`{"t":1,"kind":"PORT\u005fSEND","detail":"deadline 4120 missed → RESTART_PROCESS"}`,
		`{"t":1,"kind":"","detail":"\"\\\b\f\n\r\t\u003c\u2028"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := ParseRecord(b)
		if err != nil {
			return
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("ParseRecord accepted %q; encoding/json rejects it: %v", b, err)
		}
		if want := rec.Event(); got != want {
			t.Fatalf("ParseRecord(%q):\n got %+v\nwant %+v", b, got, want)
		}
	})
}

// TestParseRecordRejectsOtherForms pins the stricter contract: each input
// is a Record to encoding/json, but not in the form AppendRecord writes, so
// ParseRecord rejects it.
func TestParseRecordRejectsOtherForms(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"whitespace", `{"t": 1,"kind":"PORT_SEND"}`},
		{"trailing newline", `{"t":1,"kind":"PORT_SEND"}` + "\n"},
		{"key order", `{"kind":"PORT_SEND","t":1}`},
		{"case-folded key", `{"T":1,"kind":"PORT_SEND"}`},
		{"unknown field", `{"t":1,"kind":"PORT_SEND","extra":"x"}`},
		{"null", `{"t":1,"kind":"PORT_SEND","partition":null}`},
		{"duplicate key", `{"t":1,"kind":"PORT_SEND","core":1,"core":2}`},
		{"missing t", `{"kind":"PORT_SEND"}`},
		{"negative zero", `{"t":-0,"kind":"PORT_SEND"}`},
		{"omitempty zero", `{"t":1,"kind":"PORT_SEND","latency":0}`},
		{"omitempty empty string", `{"t":1,"kind":"PORT_SEND","detail":""}`},
	} {
		var rec Record
		if err := json.Unmarshal([]byte(tc.in), &rec); err != nil {
			t.Fatalf("%s: encoding/json rejects %q: %v", tc.name, tc.in, err)
		}
		if e, err := ParseRecord([]byte(tc.in)); err == nil {
			t.Errorf("%s: ParseRecord accepted %q as %+v", tc.name, tc.in, e)
		}
	}
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
