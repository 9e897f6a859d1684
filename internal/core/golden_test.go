package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"air/internal/hm"
	"air/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current encoder output")

// goldenTraceEvents is a fixed event set exercising every field of the wire
// record: a minimal classic event, a deadline miss with detection latency, a
// core-tagged multicore event, and an HM report carrying the structured
// code/level/action triple.
func goldenTraceEvents() []Event {
	return []Event{
		{Time: 0, Kind: obs.KindPartitionSwitch, Partition: "A"},
		{Time: 120, Kind: obs.KindDeadlineMiss, Partition: "A", Process: "worker",
			Detail: "deadline 100 missed", Latency: 20},
		{Time: 150, Kind: obs.KindScheduleSwitch, Detail: "schedule 1 -> 2"},
		{Time: 200, Kind: obs.KindPartitionSwitch, Core: 1, Partition: "B"},
		{Time: 240, Kind: obs.KindHMAction, Partition: "A", Process: "worker",
			Detail: "DEADLINE_MISSED -> RESTART_PROCESS",
			Code:   "DEADLINE_MISSED", Level: "PROCESS", Action: "RESTART_PROCESS"},
		{Time: 300, Kind: obs.KindModuleHalt, Detail: "HM shutdown"},
	}
}

func goldenHealthEvents() []hm.Event {
	return []hm.Event{
		{Time: 120, Code: hm.ErrDeadlineMissed, Level: hm.LevelProcess,
			Partition: "A", Process: "worker", Action: hm.ActionRestartProcess,
			Message: "deadline 100 missed at 120"},
		{Time: 300, Code: hm.ErrMemoryViolation, Level: hm.LevelProcess,
			Partition: "B", Action: hm.ActionIgnore},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file — the JSONL schema is a stable "+
			"wire format; if the change is intentional, rerun with -update\n"+
			"got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestTraceGoldenJSONL pins the trace export wire format byte-for-byte:
// field order, omitempty behaviour of the spine's new fields (core, latency,
// code/level/action) and the kind names.
func TestTraceGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.EncodeEvents(&buf, goldenTraceEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_golden.jsonl", buf.Bytes())

	// The golden stream must round-trip to the exact events.
	parsed, err := obs.DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig := goldenTraceEvents()
	if len(parsed) != len(orig) {
		t.Fatalf("round trip %d events, want %d", len(parsed), len(orig))
	}
	for i := range orig {
		if parsed[i] != orig[i] {
			t.Errorf("event %d round trip differs:\n%+v\n%+v", i, parsed[i], orig[i])
		}
	}
}

// TestHealthLogGoldenJSONL pins the health-monitoring export wire format.
func TestHealthLogGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeHealthLog(&buf, goldenHealthEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "healthlog_golden.jsonl", buf.Bytes())
}

// TestWriteTraceMatchesEncode ties the module-level writers to the pinned
// encoders: WriteTrace/WriteHealthLog must produce exactly the encoder
// output for the module's own events.
func TestWriteTraceMatchesEncode(t *testing.T) {
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
	var viaModule, viaEncoder bytes.Buffer
	if err := m.WriteTrace(&viaModule); err != nil {
		t.Fatal(err)
	}
	if err := obs.EncodeEvents(&viaEncoder, m.Trace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaModule.Bytes(), viaEncoder.Bytes()) {
		t.Error("WriteTrace output differs from obs.EncodeEvents(m.Trace())")
	}
	viaModule.Reset()
	viaEncoder.Reset()
	if err := m.WriteHealthLog(&viaModule); err != nil {
		t.Fatal(err)
	}
	if err := EncodeHealthLog(&viaEncoder, m.Health().Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaModule.Bytes(), viaEncoder.Bytes()) {
		t.Error("WriteHealthLog output differs from EncodeHealthLog(m.Health().Events())")
	}
}
