package multicore

import (
	"errors"
	"strings"
	"testing"

	"air/internal/apex"
	"air/internal/core"
	"air/internal/hm"
	"air/internal/ipc"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// coreSystem builds a one-schedule system for one core with the given
// partitions splitting a 100-tick MTF evenly.
func coreSystem(parts ...model.PartitionName) *model.System {
	n := tick.Ticks(len(parts))
	slot := 100 / n
	s := model.Schedule{Name: "main", MTF: 100}
	for i, p := range parts {
		s.Requirements = append(s.Requirements, model.Requirement{
			Partition: p, Cycle: 100, Budget: slot,
		})
		s.Windows = append(s.Windows, model.Window{
			Partition: p, Offset: tick.Ticks(i) * slot, Duration: slot,
		})
	}
	return &model.System{Partitions: parts, Schedules: []model.Schedule{s}}
}

func workerInit(name string, period, wcet tick.Ticks, out *[]string) core.InitFunc {
	return func(sv *core.Services) {
		sv.CreateProcess(model.TaskSpec{
			Name: name, Period: period, Deadline: period,
			BasePriority: 1, WCET: wcet, Periodic: true,
		}, func(sv *core.Services) {
			for {
				sv.Compute(wcet)
				if out != nil {
					*out = append(*out, name)
				}
				sv.PeriodicWait()
			}
		})
		sv.StartProcess(name)
		sv.SetPartitionMode(model.ModeNormal)
	}
}

func startDual(t *testing.T, cfg Config) *Module {
	t.Helper()
	m, err := NewModule(cfg)
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	t.Cleanup(m.Shutdown)
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return m
}

func TestValidation(t *testing.T) {
	if _, err := NewModule(Config{}); !errors.Is(err, ErrNoCores) {
		t.Errorf("no cores = %v", err)
	}
	// Affinity conflict: partition A on both cores.
	cfg := Config{Cores: []core.Config{
		{System: coreSystem("A"), Partitions: []core.PartitionConfig{{Name: "A"}}},
		{System: coreSystem("A"), Partitions: []core.PartitionConfig{{Name: "A"}}},
	}}
	if _, err := NewModule(cfg); !errors.Is(err, ErrAffinityConflict) {
		t.Errorf("affinity conflict = %v", err)
	}
	// Per-core channels are rejected.
	cfg2 := Config{Cores: []core.Config{{
		System:     coreSystem("A"),
		Partitions: []core.PartitionConfig{{Name: "A"}},
		Queuing: []ipc.QueuingConfig{{
			Name: "x", MaxMessage: 8, Depth: 1,
			Source:      ipc.PortRef{Partition: "A", Port: "o"},
			Destination: ipc.PortRef{Partition: "A", Port: "i"},
		}},
	}}}
	if _, err := NewModule(cfg2); !errors.Is(err, ErrPerCoreChannels) {
		t.Errorf("per-core channels = %v", err)
	}
}

// TestParallelWindows: partitions on different cores hold overlapping time
// windows — the exact parallelism the paper's future work names — and both
// make full progress in the same global time span.
func TestParallelWindows(t *testing.T) {
	var aDone, bDone []string
	m := startDual(t, Config{
		Cores: []core.Config{
			{System: coreSystem("A"), Partitions: []core.PartitionConfig{
				{Name: "A", Init: workerInit("wa", 100, 60, &aDone)},
			}},
			{System: coreSystem("B"), Partitions: []core.PartitionConfig{
				{Name: "B", Init: workerInit("wb", 100, 60, &bDone)},
			}},
		},
	})
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Each partition owns 100% of its core: both complete 10 activations of
	// 60 ticks in 1000 global ticks — impossible on one core (120% load).
	if len(aDone) != 10 || len(bDone) != 10 {
		t.Fatalf("activations = %d/%d, want 10/10 (parallel windows)", len(aDone), len(bDone))
	}
	if m.Cores() != 2 {
		t.Error("Cores() wrong")
	}
	if m.Now() != 1000 {
		t.Errorf("Now = %d", m.Now())
	}
}

// TestCrossCoreChannel: a queuing channel connects partitions on different
// cores through the shared router.
func TestCrossCoreChannel(t *testing.T) {
	var got []string
	m := startDual(t, Config{
		Sampling: nil,
		Queuing: []ipc.QueuingConfig{{
			Name: "link", MaxMessage: 32, Depth: 8,
			Source:      ipc.PortRef{Partition: "A", Port: "o"},
			Destination: ipc.PortRef{Partition: "B", Port: "i"},
		}},
		Cores: []core.Config{
			{System: coreSystem("A"), Partitions: []core.PartitionConfig{
				{Name: "A", Init: func(sv *core.Services) {
					sv.CreateQueuingPort("o", apex.Source)
					sv.CreateProcess(model.TaskSpec{
						Name: "tx", Period: 100, Deadline: 100,
						BasePriority: 1, WCET: 10, Periodic: true,
					}, func(sv *core.Services) {
						n := byte('a')
						for {
							sv.Compute(5)
							sv.SendQueuingMessage("o", []byte{n}, 0)
							n++
							sv.PeriodicWait()
						}
					})
					sv.StartProcess("tx")
					sv.SetPartitionMode(model.ModeNormal)
				}},
			}},
			{System: coreSystem("B"), Partitions: []core.PartitionConfig{
				{Name: "B", Init: func(sv *core.Services) {
					sv.CreateQueuingPort("i", apex.Destination)
					sv.CreateProcess(model.TaskSpec{
						Name: "rx", Period: 100, Deadline: 100,
						BasePriority: 1, WCET: 10, Periodic: true,
					}, func(sv *core.Services) {
						for {
							sv.Compute(5)
							for {
								data, rc := sv.ReceiveQueuingMessage("i", 0)
								if rc != apex.NoError {
									break
								}
								got = append(got, string(data))
							}
							sv.PeriodicWait()
						}
					})
					sv.StartProcess("rx")
					sv.SetPartitionMode(model.ModeNormal)
				}},
			}},
		},
	})
	if err := m.Run(600); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(got, "")
	if len(joined) < 4 || !strings.HasPrefix(joined, "abc") {
		t.Fatalf("cross-core messages = %q, want ordered a,b,c,...", joined)
	}
}

// TestSharedHealthMonitor: a deadline miss on core 1 is visible in the
// module-wide health monitor, attributed to its partition, and invisible to
// core 0's partitions.
func TestSharedHealthMonitor(t *testing.T) {
	m := startDual(t, Config{
		Cores: []core.Config{
			{System: coreSystem("A"), Partitions: []core.PartitionConfig{
				{Name: "A", Init: workerInit("ok", 100, 10, nil)},
			}},
			{System: coreSystem("B"), Partitions: []core.PartitionConfig{
				{Name: "B", Init: func(sv *core.Services) {
					sv.CreateProcess(model.TaskSpec{
						Name: "late", Period: 100, Deadline: 50,
						BasePriority: 1, WCET: 40, Periodic: true,
					}, func(sv *core.Services) {
						for {
							sv.Compute(1 << 30)
						}
					})
					sv.StartProcess("late")
					sv.SetPartitionMode(model.ModeNormal)
				}},
			}},
		},
	})
	if err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Health().EventsFor("B")); got == 0 {
		t.Fatal("no HM events for B on the shared monitor")
	}
	if got := len(m.Health().EventsFor("A")); got != 0 {
		t.Errorf("HM events leaked to A: %d", got)
	}
	misses := m.TraceKind(obs.KindDeadlineMiss)
	if len(misses) == 0 {
		t.Fatal("no misses in merged trace")
	}
	// Merged trace is time-ordered.
	events := m.Trace()
	for i := 1; i < len(events); i++ {
		if events[i-1].Time > events[i].Time {
			t.Fatalf("merged trace out of order at %d", i)
		}
	}
}

// TestSharedMemoryIsolationAcrossCores: partitions on different cores get
// disjoint physical frames from the shared memory.
func TestSharedMemoryIsolationAcrossCores(t *testing.T) {
	m := startDual(t, Config{
		Cores: []core.Config{
			{System: coreSystem("A"), Partitions: []core.PartitionConfig{{Name: "A"}}},
			{System: coreSystem("B"), Partitions: []core.PartitionConfig{{Name: "B"}}},
		},
	})
	mem := m.Memory()
	if err := mem.WriteIn("A", 0x0010_0000, []byte("core0-secret"), mmu.PrivPOS); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if err := mem.ReadIn("B", 0x0010_0000, buf, mmu.PrivPOS); err != nil {
		t.Fatal(err)
	}
	if string(buf) == "core0-secret" {
		t.Fatal("cross-core spatial separation violated")
	}
	pt, idx, err := m.Partition("A")
	if err != nil || idx != 0 || pt.Name() != "A" {
		t.Errorf("Partition(A) = %v %d %v", pt, idx, err)
	}
	if _, _, err := m.Partition("Z"); !errors.Is(err, ErrUnknownPartition) {
		t.Errorf("Partition(Z) = %v", err)
	}
	if _, err := m.Core(0); err != nil {
		t.Errorf("Core(0) = %v", err)
	}
	if _, err := m.Core(5); err == nil {
		t.Error("Core(5) should fail")
	}
}

// TestPerCoreScheduleSwitch: mode-based schedules remain per core — a
// switch on core 0 does not disturb core 1.
func TestPerCoreScheduleSwitch(t *testing.T) {
	sysA := coreSystem("A")
	alt := sysA.Schedules[0]
	alt.Name = "alt"
	sysA.Schedules = append(sysA.Schedules, alt)
	m := startDual(t, Config{
		Cores: []core.Config{
			{System: sysA, Partitions: []core.PartitionConfig{
				{Name: "A", System: true, Init: workerInit("wa", 100, 10, nil)},
			}},
			{System: coreSystem("B"), Partitions: []core.PartitionConfig{
				{Name: "B", Init: workerInit("wb", 100, 10, nil)},
			}},
		},
	})
	if err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	pt, _, err := m.Partition("A")
	if err != nil {
		t.Fatal(err)
	}
	if rc := pt.KernelServices().SetModuleScheduleByName("alt"); rc != apex.NoError {
		t.Fatalf("switch rc = %v", rc)
	}
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	c0, _ := m.Core(0)
	c1, _ := m.Core(1)
	if c0.ScheduleStatus().CurrentName != "alt" {
		t.Errorf("core 0 schedule = %s", c0.ScheduleStatus().CurrentName)
	}
	if c1.ScheduleStatus().CurrentName != "main" {
		t.Errorf("core 1 schedule = %s, must be untouched", c1.ScheduleStatus().CurrentName)
	}
}

// TestDeterminismAcrossCores: two runs of a dual-core module produce
// identical merged traces.
func TestDeterminismAcrossCores(t *testing.T) {
	run := func() []string {
		var aDone, bDone []string
		m := startDual(t, Config{
			Cores: []core.Config{
				{System: coreSystem("A"), Partitions: []core.PartitionConfig{
					{Name: "A", Init: workerInit("wa", 100, 30, &aDone)},
				}},
				{System: coreSystem("B"), Partitions: []core.PartitionConfig{
					{Name: "B", Init: workerInit("wb", 50, 10, &bDone)},
				}},
			},
		})
		if err := m.Run(500); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, e := range m.Trace() {
			lines = append(lines, e.String())
		}
		m.Shutdown()
		return lines
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestCoreEventAttribution: partitions on different cores hold overlapping
// windows; every fine-grained spine event (window activation, heir
// selection, preemption) is tagged with the core that emitted it, and the
// shared spine's stream is deterministically ordered — time never
// decreases, and within one global tick the per-core scheduling events
// appear in core index order.
func TestCoreEventAttribution(t *testing.T) {
	run := func() []obs.Event {
		all := obs.NewRing(1 << 16) // unfiltered sink: captures every spine kind
		m := startDual(t, Config{
			Sinks: []obs.Sink{all},
			Cores: []core.Config{
				{System: coreSystem("A"), Partitions: []core.PartitionConfig{
					{Name: "A", Init: workerInit("wa", 100, 60, nil)},
				}},
				{System: coreSystem("B"), Partitions: []core.PartitionConfig{
					{Name: "B", Init: workerInit("wb", 50, 20, nil)},
				}},
			},
		})
		if err := m.Run(400); err != nil {
			t.Fatal(err)
		}
		m.Shutdown()
		return all.Events()
	}

	events := run()
	partToCore := map[model.PartitionName]int{"A": 0, "B": 1}
	sched := 0
	lastTime, lastCoreAt := tick.Ticks(0), 0
	for i, e := range events {
		switch e.Kind {
		case obs.KindWindowActivation, obs.KindHeirSelection, obs.KindPreemption,
			obs.KindPartitionSwitch:
			// Per-core scheduling events must carry their partition's core.
			if e.Partition != "" {
				if want := partToCore[e.Partition]; e.Core != want {
					t.Fatalf("event %d (%s %s) tagged core %d, want %d",
						i, e.Kind, e.Partition, e.Core, want)
				}
			}
			sched++
			// Deterministic order: time monotone; within a tick, core
			// index order (cores are stepped in index order).
			if e.Time < lastTime {
				t.Fatalf("event %d: time went backwards (%d after %d)", i, e.Time, lastTime)
			}
			if e.Time == lastTime && e.Core < lastCoreAt {
				t.Fatalf("event %d: core %d after core %d within tick %d",
					i, e.Core, lastCoreAt, e.Time)
			}
			lastTime, lastCoreAt = e.Time, e.Core
		}
	}
	if sched == 0 {
		t.Fatal("no scheduling events captured")
	}
	for _, want := range []int{0, 1} {
		found := false
		for _, e := range events {
			if e.Kind == obs.KindWindowActivation && e.Core == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no window activation attributed to core %d", want)
		}
	}

	// Two runs produce the identical full event stream (tags included).
	again := run()
	if len(again) != len(events) {
		t.Fatalf("event counts differ across runs: %d vs %d", len(again), len(events))
	}
	for i := range events {
		if events[i] != again[i] {
			t.Fatalf("streams diverge at %d:\n%+v\n%+v", i, events[i], again[i])
		}
	}
}

// TestSharedTraceKeepsSingleCoreKinds: the shared ring admits what a
// single-core module's ring admits, so the recovery engine's and the
// timeline analyzer's findings on a multicore spine reach the merged trace.
func TestSharedTraceKeepsSingleCoreKinds(t *testing.T) {
	m := startDual(t, Config{
		Cores: []core.Config{
			{System: coreSystem("A"), Partitions: []core.PartitionConfig{{Name: "A"}}},
			{System: coreSystem("B"), Partitions: []core.PartitionConfig{{Name: "B"}}},
		},
	})
	for _, k := range []obs.Kind{obs.KindSlackWarning, obs.KindQuarantineEnter} {
		m.Bus().Emit(obs.Event{Time: m.Now(), Kind: k, Partition: "B"})
		if got := m.TraceKind(k); len(got) != 1 {
			t.Errorf("TraceKind(%s) = %v, want the one emitted event", k, got)
		}
	}
}

// TestMulticoreMetricsSnapshot: the shared spine's registry aggregates
// events from every core.
func TestMulticoreMetricsSnapshot(t *testing.T) {
	m := startDual(t, Config{
		Cores: []core.Config{
			{System: coreSystem("A"), Partitions: []core.PartitionConfig{
				{Name: "A", Init: workerInit("wa", 100, 10, nil)},
			}},
			{System: coreSystem("B"), Partitions: []core.PartitionConfig{
				{Name: "B", Init: workerInit("wb", 100, 10, nil)},
			}},
		},
	})
	if err := m.Run(300); err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics()
	if snap.Events == 0 {
		t.Fatal("empty metrics snapshot")
	}
	if snap.CountKind(obs.KindWindowActivation) == 0 {
		t.Errorf("no window activations counted: %v", snap.Counts)
	}
	if snap.CountKind(obs.KindHeirSelection) == 0 {
		t.Errorf("no heir selections counted: %v", snap.Counts)
	}
}

// TestCoreHaltIsolated: a SHUTDOWN_MODULE decision on one core halts that
// core while the other keeps running; the multicore module halts only when
// all cores halt.
func TestCoreHaltIsolated(t *testing.T) {
	m := startDual(t, Config{
		Cores: []core.Config{
			{System: coreSystem("A"), Partitions: []core.PartitionConfig{
				{Name: "A", Init: func(sv *core.Services) {
					sv.CreateProcess(model.TaskSpec{
						Name: "late", Period: 100, Deadline: 50,
						BasePriority: 1, WCET: 40, Periodic: true,
					}, func(sv *core.Services) {
						for {
							sv.Compute(1 << 30)
						}
					})
					sv.StartProcess("late")
					sv.SetPartitionMode(model.ModeNormal)
				},
					HMProcessTable: hm.Table{
						hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionShutdownModule},
					}},
			}},
			{System: coreSystem("B"), Partitions: []core.PartitionConfig{
				{Name: "B", Init: workerInit("wb", 100, 10, nil)},
			}},
		},
	})
	if err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	c0, _ := m.Core(0)
	c1, _ := m.Core(1)
	if !c0.Halted() {
		t.Fatal("core 0 should have halted")
	}
	if c1.Halted() {
		t.Fatal("core 1 must keep running")
	}
	if m.Halted() {
		t.Fatal("module halts only when all cores halt")
	}
	// Stepping past a halted core is fine, and the global clock advances.
	before := m.Now()
	if err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	if m.Now() != before+50 {
		t.Errorf("clock stalled: %d → %d", before, m.Now())
	}
	// Shut down the rest: the module is halted and Run returns immediately.
	m.Shutdown()
	if !m.Halted() {
		t.Fatal("all cores down, module must report halted")
	}
	if err := m.Run(10); err != nil {
		t.Errorf("Run after halt = %v", err)
	}
}
