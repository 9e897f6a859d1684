package timeline_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"air/internal/core"
	"air/internal/model"
	"air/internal/timeline"
	"air/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fig8Run drives the satellite workload for mtfs major time frames with the
// analyzer attached and returns it. The simulation is deterministic, so the
// derived state is reproducible byte-for-byte.
func fig8Run(t *testing.T, mtfs int, opts workload.Options) (*core.Module, *timeline.Timeline) {
	t.Helper()
	m, err := core.NewModule(workload.Config(opts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	tl := timeline.Attach(m.Bus(), timeline.Options{System: model.Fig8System()})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	mtf := model.Fig8System().Schedules[0].MTF
	for i := 0; i < mtfs; i++ {
		if err := m.Run(mtf); err != nil {
			t.Fatal(err)
		}
	}
	return m, tl
}

// TestPrometheusGolden pins the full exporter page for a deterministic
// fault-free fig8 run: any change to the exposition format, the analyzer's
// arithmetic, or the simulation's timing shows up as a diff against the
// committed golden file (regenerate with -update).
func TestPrometheusGolden(t *testing.T) {
	_, tl := fig8Run(t, 4, workload.Options{})
	var buf bytes.Buffer
	if err := timeline.WritePrometheus(&buf, tl.Registry(), tl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics_golden.prom")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exporter output differs from %s (rerun with -update after intentional changes)\ngot:\n%s", golden, buf.String())
	}
}

// TestFaultFreeRunIsClean asserts the analyzer's verdicts on a nominal run:
// the fig8 tables honor every budget contract and no activation ever comes
// near its watermark, so a fault-free run must produce zero early warnings,
// zero model violations and zero misses.
func TestFaultFreeRunIsClean(t *testing.T) {
	_, tl := fig8Run(t, 6, workload.Options{})
	s := tl.Snapshot()
	if s.ModelViolations != 0 {
		t.Errorf("model violations on fault-free run: %d", s.ModelViolations)
	}
	if s.EarlyWarnings != 0 {
		t.Errorf("early warnings on fault-free run: %d", s.EarlyWarnings)
	}
	if s.DeadlineMisses != 0 {
		t.Errorf("deadline misses on fault-free run: %d", s.DeadlineMisses)
	}
	if s.Response.Count == 0 || len(s.Partitions) != 4 || len(s.Processes) == 0 {
		t.Errorf("analyzer saw no activity: %+v", s)
	}
}

// TestFaultyRunWarnsBeforeDetection asserts the early-warning contract on
// the Sect. 6 deadline-overrun injection: every PAL-detected miss was
// preceded by a slack-watermark warning with positive lead time.
func TestFaultyRunWarnsBeforeDetection(t *testing.T) {
	_, tl := fig8Run(t, 6, workload.Options{Faults: []workload.FaultSpec{{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}})
	s := tl.Snapshot()
	if s.DeadlineMisses == 0 {
		t.Fatal("fault injection produced no misses")
	}
	if s.EarlyWarnings < s.DeadlineMisses {
		t.Errorf("warnings %d < misses %d: early warning failed to precede detection",
			s.EarlyWarnings, s.DeadlineMisses)
	}
	if s.EarlyWarningLead.Count == 0 || s.EarlyWarningLead.Min == 0 {
		t.Errorf("lead = %+v, want every lead positive", s.EarlyWarningLead)
	}
}
