package workload

import (
	"strings"
	"testing"

	"air/internal/core"
	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
)

func startSatellite(t *testing.T, opts Options) *core.Module {
	t.Helper()
	m, err := core.NewModule(Config(opts))
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	t.Cleanup(m.Shutdown)
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return m
}

func TestNominalSatelliteRun(t *testing.T) {
	lines := map[model.PartitionName][]string{}
	m := startSatellite(t, Options{
		Output: func(p model.PartitionName, line string) {
			lines[p] = append(lines[p], line)
		},
	})
	if err := m.Run(5 * 1300); err != nil {
		t.Fatal(err)
	}
	// Every partition produced output.
	for _, p := range []model.PartitionName{"P1", "P2", "P3", "P4"} {
		if len(lines[p]) == 0 {
			t.Errorf("partition %s produced no output", p)
		}
	}
	// No deadline misses in the nominal run.
	if misses := m.TraceKind(obs.KindDeadlineMiss); len(misses) != 0 {
		t.Errorf("nominal run missed deadlines: %v", misses)
	}
	// The data path works end to end: TTC downlinked housekeeping frames
	// carrying attitude samples.
	var sawDownlink, sawAttitude bool
	for _, l := range lines["P3"] {
		if strings.Contains(l, "downlink") {
			sawDownlink = true
		}
		if strings.Contains(l, "att=") && strings.Contains(l, "q:") {
			sawAttitude = true
		}
	}
	if !sawDownlink || !sawAttitude {
		t.Errorf("TTC downlink chain incomplete (downlink=%v attitude=%v):\n%s",
			sawDownlink, sawAttitude, strings.Join(lines["P3"], "\n"))
	}
	// FDIR saw nominal attitude.
	if !containsSub(lines["P4"], "nominal") {
		t.Errorf("FDIR output = %v", lines["P4"])
	}
}

// TestInjectedFaultPattern reproduces the paper's Sect. 6 demonstration in
// the full satellite workload (experiment E3 at system scale).
func TestInjectedFaultPattern(t *testing.T) {
	m := startSatellite(t, Options{Faults: []FaultSpec{{Kind: FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}})
	const mtfs = 8
	if err := m.Run(mtfs * 1300); err != nil {
		t.Fatal(err)
	}
	misses := m.TraceKind(obs.KindDeadlineMiss)
	// Every P1 dispatch except the first detects the fault: one per MTF.
	if len(misses) != mtfs {
		t.Fatalf("detections = %d over %d MTFs, want %d", len(misses), mtfs, mtfs)
	}
	for i, e := range misses {
		if e.Partition != "P1" || e.Process != "faulty" {
			t.Fatalf("detection %d misattributed: %v", i, e)
		}
		if e.Time%1300 != 0 || e.Time == 0 {
			t.Errorf("detection %d at %d, want at a P1 dispatch boundary", i, e.Time)
		}
	}
	// The AOCS control process (higher priority than the faulty one) keeps
	// meeting its deadlines and publishing.
	for _, e := range misses {
		if e.Process == "aocs_control" {
			t.Error("fault spilled into the control process")
		}
	}
	if got := m.Health().Count(hm.ErrDeadlineMissed); got != len(misses) {
		t.Errorf("HM count %d != trace %d", got, len(misses))
	}
}

// TestFDIRModeSwitch exercises mode-based schedule adaptation: AOCS stops
// publishing (P1 idled), FDIR observes stale attitude and requests chi2.
func TestFDIRModeSwitch(t *testing.T) {
	m := startSatellite(t, Options{
		FDIRSwitchOnStale: 2,
		ChangeActions: map[model.PartitionName]model.ScheduleChangeAction{
			"P2": model.ActionWarmStart,
		},
	})
	// Run two MTFs nominally, then idle P1 so attitude goes stale.
	if err := m.Run(2 * 1300); err != nil {
		t.Fatal(err)
	}
	pt1, err := m.Partition("P1")
	if err != nil {
		t.Fatal(err)
	}
	// Stop P1 from the kernel side (ground command analogue).
	pt1.KernelServices().SetPartitionMode(model.ModeIdle)
	if pt1.Mode() != model.ModeIdle {
		t.Fatal("P1 not idled")
	}
	// FDIR needs ≥2 activations with stale data, then the switch lands at
	// the next MTF boundary.
	if err := m.Run(6 * 1300); err != nil {
		t.Fatal(err)
	}
	if got := m.ScheduleStatus().CurrentName; got != "chi2" {
		t.Fatalf("schedule = %s, want chi2 after FDIR request", got)
	}
	// P2's warm-start change action fired.
	pt2, _ := m.Partition("P2")
	if pt2.StartCount() < 2 {
		t.Errorf("P2 start count = %d, want warm restart on switch", pt2.StartCount())
	}
}

func containsSub(lines []string, sub string) bool {
	for _, l := range lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}
