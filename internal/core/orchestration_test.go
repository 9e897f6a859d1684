package core

import (
	"fmt"
	"testing"

	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/recovery"
	"air/internal/tick"
)

// windowCollector records window activations for a set of partitions. The
// trace ring does not retain the high-frequency WINDOW_ACTIVATION kind, so
// the e2e tests attach this sink directly to the spine.
type windowCollector struct {
	watch map[model.PartitionName]bool
	seq   []string
}

func (c *windowCollector) Emit(e obs.Event) {
	if e.Kind != obs.KindWindowActivation || !c.watch[e.Partition] {
		return
	}
	c.seq = append(c.seq, fmt.Sprintf("%d:%s", e.Time, e.Partition))
}

// stormInit builds a partition init whose single process faults immediately
// on every incarnation while *remaining > 0 (decrementing it), then behaves
// as a healthy periodic task. A nil remaining pointer faults forever. The
// counter lives outside the partition so it survives cold restarts — this is
// what makes the fault a restart storm rather than a one-shot error.
func stormInit(remaining *int) InitFunc {
	return normalInit(func(sv *Services) {
		sv.CreateProcess(periodicTask("app", 1300, 5), func(sv *Services) {
			if remaining == nil || *remaining > 0 {
				if remaining != nil {
					*remaining--
				}
				panic("injected fault")
			}
			for {
				sv.Compute(1)
				sv.PeriodicWait()
			}
		})
		sv.StartProcess("app")
	})
}

// healthyInit builds a partition init with one well-behaved periodic task.
func healthyInit(period tick.Ticks) InitFunc {
	return normalInit(func(sv *Services) {
		sv.CreateProcess(periodicTask("app", period, 5), func(sv *Services) {
			for {
				sv.Compute(1)
				sv.PeriodicWait()
			}
		})
		sv.StartProcess("app")
	})
}

// fig8StormConfig assembles the Fig. 8 prototype with P1 faulting per
// stormInit and P2–P4 healthy. The storm table drives every application
// error to a partition cold start — the restart-storm failure mode.
func fig8StormConfig(remaining *int, pol *recovery.Policy, sinks ...obs.Sink) Config {
	stormTable := hm.Table{
		hm.ErrApplicationError: hm.Rule{Action: hm.ActionColdStartPartition},
	}
	return Config{
		System: model.Fig8System(),
		Partitions: []PartitionConfig{
			{Name: "P1", Init: stormInit(remaining), HMProcessTable: stormTable},
			{Name: "P2", Init: healthyInit(650)},
			{Name: "P3", Init: healthyInit(650)},
			{Name: "P4", Init: healthyInit(1300)},
		},
		Recovery: pol,
		Sinks:    sinks,
	}
}

func runFig8(t *testing.T, remaining *int, pol *recovery.Policy, ticks tick.Ticks) (*Module, *windowCollector) {
	t.Helper()
	wc := &windowCollector{watch: map[model.PartitionName]bool{"P2": true, "P3": true, "P4": true}}
	m := startModule(t, fig8StormConfig(remaining, pol, wc))
	if err := m.Run(ticks); err != nil {
		t.Fatal(err)
	}
	return m, wc
}

func restartsFor(m *Module, p model.PartitionName) []Event {
	var out []Event
	for _, e := range m.TraceKind(obs.KindPartitionRestart) {
		if e.Partition == p {
			out = append(out, e)
		}
	}
	return out
}

// TestRestartStormContainment is the tentpole e2e scenario: P1 cold-starts
// on every fault, forever. Without a recovery policy the storm consumes
// P1's processor windows with restarts for the whole run; with restart
// budgets and quarantine the storm is extinguished after a handful of
// restarts — and the healthy partitions' window activations stay
// tick-for-tick identical to a fault-free baseline.
func TestRestartStormContainment(t *testing.T) {
	const horizon = 13 * 1300 // 13 MTFs

	// Fault-free baseline: every partition healthy, no policy.
	healthy := 0
	_, baseline := runFig8(t, &healthy, nil, horizon)

	// Unmanaged storm: P1 faults on every incarnation, no policy. Each tick
	// P1 holds the processor it faults and cold-starts again, so the storm
	// burns restarts at window rate until the run ends.
	unmanaged, _ := runFig8(t, nil, nil, horizon)
	unmanagedRestarts := restartsFor(unmanaged, "P1")
	if len(unmanagedRestarts) < 1000 {
		t.Fatalf("unmanaged storm restarts = %d, want >= 1000 (one per granted tick)",
			len(unmanagedRestarts))
	}
	last := unmanagedRestarts[len(unmanagedRestarts)-1]
	if last.Time < horizon-1300 {
		t.Errorf("unmanaged storm died out at t=%d, want restarts through the final MTF", last.Time)
	}

	// Managed storm: restart budgets + quarantine (no degradation ladder, so
	// the schedule is untouched and activations are directly comparable).
	pol := recovery.DefaultPolicy()
	managed, managedWins := runFig8(t, nil, &pol, horizon)
	managedRestarts := restartsFor(managed, "P1")
	if len(managedRestarts) == 0 {
		t.Fatal("managed storm: no restart was granted at all")
	}
	if len(managedRestarts) > 20 {
		t.Errorf("managed storm restarts = %d, want a handful (budget+quarantine containment)",
			len(managedRestarts))
	}
	if got := managed.Recovery().StatusOf("P1"); got == recovery.StatusNormal {
		t.Errorf("P1 recovery status = %v, want deferred/quarantined/half-open", got)
	}
	snap := managed.Bus().Snapshot()
	if n := snap.CountKind(obs.KindQuarantineEnter); n == 0 {
		t.Error("no QUARANTINE_ENTER was emitted")
	}

	// Containment determinism: the healthy partitions' window activations
	// must match the fault-free baseline exactly, tick for tick.
	if len(managedWins.seq) != len(baseline.seq) {
		t.Fatalf("healthy window activations: got %d, baseline %d",
			len(managedWins.seq), len(baseline.seq))
	}
	for i := range baseline.seq {
		if managedWins.seq[i] != baseline.seq[i] {
			t.Fatalf("healthy activation %d diverged: got %s, baseline %s",
				i, managedWins.seq[i], baseline.seq[i])
		}
	}

	// The faulty partition's HM containment held: no HM events attributed to
	// healthy partitions.
	for _, p := range []model.PartitionName{"P2", "P3", "P4"} {
		if evs := managed.Health().EventsFor(p); len(evs) != 0 {
			t.Errorf("HM events leaked to %s: %v", p, evs)
		}
	}
}

// TestDegradationAndRestore drives the full ladder arc: a transient storm
// quarantines P1, the ladder degrades the module to the chi2 safe-mode
// schedule, the half-open probe eventually finds P1 healthy (finite MTTR),
// and after the module stays clean the nominal chi1 schedule is restored.
func TestDegradationAndRestore(t *testing.T) {
	pol := recovery.Policy{
		Default: recovery.Budget{MaxRestarts: 2, Window: 2600, BackoffBase: 650, BackoffMax: 5200},
		Quarantine: recovery.Quarantine{
			Failures: 3, FailureWindow: 1300,
			Cooldown: 2600, CooldownMax: 10400, ProbeTicks: 1300,
		},
		Degradation: recovery.Degradation{
			Ladder:       []recovery.Rung{{Quarantined: 1, Schedule: "chi2"}},
			RestoreAfter: 2600,
		},
	}
	faults := 6 // transient: storm dies out once the probe incarnation is clean
	m, _ := runFig8(t, &faults, &pol, 30*1300)

	snap := m.Bus().Snapshot()
	if snap.CountKind(obs.KindQuarantineEnter) == 0 {
		t.Fatal("storm never quarantined P1")
	}
	degrades := m.TraceKind(obs.KindScheduleDegrade)
	if len(degrades) == 0 {
		t.Fatal("quarantine did not degrade the schedule")
	}
	exits := m.TraceKind(obs.KindQuarantineExit)
	if len(exits) == 0 {
		t.Fatal("quarantine never lifted (no healthy probe)")
	}
	if exits[0].Latency <= 0 {
		t.Errorf("MTTR = %d, want > 0", exits[0].Latency)
	}
	restores := m.TraceKind(obs.KindScheduleRestore)
	if len(restores) == 0 {
		t.Fatal("nominal schedule was never restored")
	}
	if restores[0].Latency <= 0 {
		t.Errorf("degraded residency = %d, want > 0", restores[0].Latency)
	}
	if got := m.ScheduleStatus().CurrentName; got != "chi1" {
		t.Errorf("final schedule = %s, want nominal chi1", got)
	}
	if m.Recovery().Degraded() {
		t.Error("engine still reports degraded after restore")
	}
	if got := m.Recovery().StatusOf("P1"); got != recovery.StatusNormal {
		t.Errorf("P1 status = %v, want normal after recovery", got)
	}
}

// TestLivenessWatchdogDetectsHang covers the PARTITION_HANG fault class: a
// process that spins forever on an infinite deadline is invisible to
// deadline monitoring, but the liveness watchdog reports it after HangTicks
// granted ticks without progress and the partition-level default
// (cold start) recovers it.
func TestLivenessWatchdogDetectsHang(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("spin", 5), func(sv *Services) {
					sv.Compute(1 << 30) // no deadline, no progress: a silent hang
				})
				sv.StartProcess("spin")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
		HangTicks: 30,
	})
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	var hangs []hm.Event
	for _, e := range m.Health().EventsFor("A") {
		if e.Code == hm.ErrPartitionHang {
			hangs = append(hangs, e)
		}
	}
	if len(hangs) == 0 {
		t.Fatal("watchdog never reported PARTITION_HANG")
	}
	// A runs [0,50) per 100-tick MTF; 30 consumed ticks fire at t=30.
	if hangs[0].Time != 30 {
		t.Errorf("first hang detected at t=%d, want 30", hangs[0].Time)
	}
	pt, err := m.Partition("A")
	if err != nil {
		t.Fatal(err)
	}
	if pt.StartCount() < 2 {
		t.Errorf("start count = %d, want >= 2 (watchdog cold start)", pt.StartCount())
	}
	if got := m.Health().EventsFor("B"); len(got) != 0 {
		t.Errorf("HM events leaked to B: %v", got)
	}
}
