package workload

import (
	"testing"

	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/recovery"
)

// TestRestartStormBoundedHMLog: an unmanaged restart storm produces an HM
// report per incarnation, far beyond the default log bound over a long run —
// the monitor's event log must stay bounded at hm.DefaultMaxLog instead of
// growing with the storm.
func TestRestartStormBoundedHMLog(t *testing.T) {
	m := runSatellite(t, Options{Faults: []FaultSpec{
		// A magnitude far beyond the horizon: the storm never dies out.
		{Kind: FaultRestartStorm, Magnitude: 1 << 20},
	}}, 100)
	if m.Halted() {
		t.Fatal("module halted under the storm")
	}
	// The spine's monotonic counter (not the bounded trace ring) proves the
	// storm generated more reports than the log may retain.
	snap := m.Metrics()
	reports := snap.CountKind(obs.KindHMReport)
	if reports <= uint64(hm.DefaultMaxLog) {
		t.Fatalf("storm produced only %d HM reports; horizon too short to exercise the log bound", reports)
	}
	if got := len(m.Health().Events()); got != hm.DefaultMaxLog {
		t.Fatalf("HM event log length = %d, want bounded at %d", got, hm.DefaultMaxLog)
	}
}

// TestRestartStormRecoveryOrchestration drives the full recovery arc through
// the satellite scenario: a transient restart storm on P1 is contained by
// budgets, quarantined, degrades the module to the chi2 safe-mode schedule,
// and — once the storm's incarnation counter is exhausted and a half-open
// probe stays healthy — the quarantine lifts with a finite MTTR and the
// nominal chi1 schedule is restored.
func TestRestartStormRecoveryOrchestration(t *testing.T) {
	pol := recovery.DefaultPolicy()
	pol.Degradation.Ladder = []recovery.Rung{{Quarantined: 1, Schedule: "chi2"}}
	m := runSatellite(t, Options{
		Faults:   []FaultSpec{{Kind: FaultRestartStorm}}, // default: 8 incarnations on P1
		Recovery: &pol,
	}, 80)

	if m.Halted() {
		t.Fatal("module halted")
	}
	restarts := len(m.TraceKind(obs.KindPartitionRestart))
	if restarts == 0 || restarts > 30 {
		t.Fatalf("P1 restarts = %d, want contained to a handful", restarts)
	}
	if n := len(m.TraceKind(obs.KindQuarantineEnter)); n == 0 {
		t.Fatal("storm never quarantined P1")
	}
	exits := m.TraceKind(obs.KindQuarantineExit)
	if len(exits) == 0 {
		t.Fatal("quarantine never lifted")
	}
	if exits[0].Latency <= 0 {
		t.Errorf("MTTR = %d, want > 0", exits[0].Latency)
	}
	if len(m.TraceKind(obs.KindScheduleDegrade)) == 0 {
		t.Fatal("ladder never degraded the schedule")
	}
	if len(m.TraceKind(obs.KindScheduleRestore)) == 0 {
		t.Fatal("nominal schedule never restored")
	}
	if got := m.ScheduleStatus().CurrentName; got != "chi1" {
		t.Errorf("final schedule = %s, want chi1", got)
	}
	if got := m.Recovery().StatusOf("P1"); got != recovery.StatusNormal {
		t.Errorf("P1 final status = %v, want normal", got)
	}
	// Containment: the storm's HM activity stayed inside P1.
	for _, p := range []string{"P2", "P3", "P4"} {
		if evs := m.Health().EventsFor(model.PartitionName(p)); len(evs) != 0 {
			t.Errorf("%s accumulated HM events: %d", p, len(evs))
		}
	}
}
