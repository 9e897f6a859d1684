package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"air/internal/hm"
	"air/internal/obs"
)

func TestWriteTraceJSONL(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: faultyPartitionInit(100, 120),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionIgnore},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(m.Trace()) {
		t.Fatalf("exported %d lines for %d events", len(lines), len(m.Trace()))
	}
	// Every line is standalone valid JSON with the required keys.
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if _, ok := rec["t"]; !ok {
			t.Fatalf("line missing time: %q", line)
		}
		if _, ok := rec["kind"]; !ok {
			t.Fatalf("line missing kind: %q", line)
		}
	}
	// Round trip.
	parsed, err := obs.DecodeEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	orig := m.Trace()
	if len(parsed) != len(orig) {
		t.Fatalf("round trip %d events, want %d", len(parsed), len(orig))
	}
	for i := range orig {
		if parsed[i] != orig[i] {
			t.Fatalf("event %d differs:\n%+v\n%+v", i, parsed[i], orig[i])
		}
	}
}

func TestWriteHealthLogJSONL(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: faultyPartitionInit(100, 120)},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteHealthLog(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no health events exported")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["code"] != "DEADLINE_MISSED" || rec["partition"] != "A" {
		t.Errorf("first record = %v", rec)
	}
}

func TestReadTraceMalformed(t *testing.T) {
	if _, err := obs.DecodeEvents(strings.NewReader(`{"t": 1, "kind"`)); err == nil {
		t.Error("malformed trace accepted")
	}
	events, err := obs.DecodeEvents(strings.NewReader(`{"t":5,"kind":"BOGUS_KIND"}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != 0 {
		t.Errorf("unknown kind handling = %+v", events)
	}
}
