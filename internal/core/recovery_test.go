package core

import (
	"strings"
	"testing"

	"air/internal/hm"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// faultyPartitionInit builds the E3 scenario init: a periodic process whose
// computation (overrun ticks) exceeds its deadline every activation.
func faultyPartitionInit(period, work tick.Ticks) InitFunc {
	return normalInit(func(sv *Services) {
		sv.CreateProcess(periodicTask("faulty", period, 5), func(sv *Services) {
			for {
				sv.Compute(work)
				sv.PeriodicWait()
			}
		})
		sv.StartProcess("faulty")
	})
}

// TestFaultyProcessDetectionPattern is experiment E3, the paper's Sect. 6
// scenario: a faulty process on A never completes its activation; its
// deadline (shorter than the activation cycle) expires while A is inactive,
// and — with the process restarted on each miss, re-arming a fresh deadline
// — "its deadline violation is detected and reported every time (except the
// first)" that A is scheduled and dispatched.
func TestFaultyProcessDetectionPattern(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(model.TaskSpec{
					Name: "faulty", Period: 100, Deadline: 60,
					BasePriority: 5, WCET: 50, Periodic: true,
				}, func(sv *Services) {
					for {
						sv.Compute(1 << 30) // never completes
					}
				})
				sv.StartProcess("faulty")
			}),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionRestartProcess},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	const mtfs = 10
	if err := m.Run(100 * mtfs); err != nil {
		t.Fatal(err)
	}
	misses := m.TraceKind(obs.KindDeadlineMiss)
	// Running ticks 1..1000 dispatches A at t=0, 100, ..., 1000; every
	// dispatch except the first (t=0) detects the restarted process's
	// expired deadline — ten detections.
	if len(misses) != mtfs {
		t.Fatalf("detections = %d, want %d (every dispatch except the first)",
			len(misses), mtfs)
	}
	for i, e := range misses {
		if e.Partition != "A" || e.Process != "faulty" {
			t.Errorf("mis-attributed detection: %v", e)
		}
		if want := tick.Ticks(100 * (i + 1)); e.Time != want {
			t.Errorf("detection %d at t=%d, want %d (dispatch instant)", i, e.Time, want)
		}
	}
	// Detections are confined to A: B saw no HM events.
	if got := m.Health().EventsFor("B"); len(got) != 0 {
		t.Errorf("HM events leaked to B: %v", got)
	}
}

// TestDetectionAtDispatchAfterInactivity verifies the Fig. 7 catch-up path:
// the deadline expires while the partition is inactive and is detected at
// the next dispatch instant, not later.
func TestDetectionAtDispatchAfterInactivity(t *testing.T) {
	// A runs [0,10) of a 100-tick MTF; deadline 30 expires mid-inactivity.
	sys := &model.System{
		Partitions: []model.PartitionName{"A", "B"},
		Schedules: []model.Schedule{{
			Name: "tight", MTF: 100,
			Requirements: []model.Requirement{
				{Partition: "A", Cycle: 100, Budget: 10},
				{Partition: "B", Cycle: 100, Budget: 90},
			},
			Windows: []model.Window{
				{Partition: "A", Offset: 0, Duration: 10},
				{Partition: "B", Offset: 10, Duration: 90},
			},
		}},
	}
	m := startModule(t, Config{
		System: sys,
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(model.TaskSpec{
					Name: "f", Period: 100, Deadline: 30, BasePriority: 1,
					WCET: 20, Periodic: true,
				}, func(sv *Services) {
					for {
						sv.Compute(20) // needs 20 ticks but window is 10
						sv.PeriodicWait()
					}
				})
				sv.StartProcess("f")
			}),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionIgnore},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(150); err != nil {
		t.Fatal(err)
	}
	misses := m.TraceKind(obs.KindDeadlineMiss)
	if len(misses) != 1 {
		t.Fatalf("misses = %v, want exactly 1", misses)
	}
	// Deadline 30 expired during B's window; A is dispatched again at 100:
	// detection exactly then.
	if misses[0].Time != 100 {
		t.Errorf("detected at %d, want 100 (dispatch instant)", misses[0].Time)
	}
}

func TestHMStopProcessAction(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: faultyPartitionInit(100, 120),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionStopProcess},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// One miss, then the process is dormant forever.
	if got := len(m.TraceKind(obs.KindDeadlineMiss)); got != 1 {
		t.Fatalf("misses = %d, want 1 (stopped after first)", got)
	}
	pt, _ := m.Partition("A")
	proc, err := pt.Kernel().Lookup("faulty")
	if err != nil {
		t.Fatal(err)
	}
	if proc.State != model.StateDormant {
		t.Errorf("state = %s, want dormant", proc.State)
	}
	if got := len(m.TraceKind(obs.KindProcessStopped)); got != 1 {
		t.Errorf("stop events = %d", got)
	}
}

func TestHMRestartProcessAction(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: faultyPartitionInit(100, 120),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionRestartProcess},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// The process keeps being restarted and keeps missing.
	if got := len(m.TraceKind(obs.KindProcessRestarted)); got < 3 {
		t.Errorf("restarts = %d, want several", got)
	}
	pt, _ := m.Partition("A")
	proc, _ := pt.Kernel().Lookup("faulty")
	if proc == nil || proc.State == model.StateDormant {
		t.Error("restarted process should be live")
	}
}

func TestHMPartitionRestartAction(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: faultyPartitionInit(100, 120),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionColdStartPartition},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	pt, _ := m.Partition("A")
	if pt.StartCount() < 3 {
		t.Errorf("start count = %d, want several cold starts", pt.StartCount())
	}
	if pt.Mode() != model.ModeNormal {
		t.Errorf("mode after restart = %s", pt.Mode())
	}
}

func TestHMLogThresholdEscalation(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: faultyPartitionInit(100, 120),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{
						Action:     hm.ActionLogThreshold,
						Threshold:  3,
						Escalation: hm.ActionStopProcess,
					},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(2000); err != nil {
		t.Fatal(err)
	}
	// 3 ignored + 1 escalated stop = 4 misses total.
	if got := len(m.TraceKind(obs.KindDeadlineMiss)); got != 4 {
		t.Errorf("misses = %d, want 4 (threshold 3 + escalation)", got)
	}
	pt, _ := m.Partition("A")
	proc, _ := pt.Kernel().Lookup("faulty")
	if proc.State != model.StateDormant {
		t.Errorf("state = %s, want dormant after escalation", proc.State)
	}
}

func TestErrorHandlerInvoked(t *testing.T) {
	var handled []hm.Event
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateErrorHandler(func(hsv *Services, ev hm.Event) {
					handled = append(handled, ev)
					hsv.StopProcess("faulty")
				})
				sv.CreateProcess(periodicTask("faulty", 100, 5), func(sv *Services) {
					for {
						sv.Compute(120)
						sv.PeriodicWait()
					}
				})
				sv.StartProcess("faulty")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 1 {
		t.Fatalf("handler invocations = %d, want 1 (then stopped)", len(handled))
	}
	if handled[0].Code != hm.ErrDeadlineMissed || handled[0].Process != "faulty" {
		t.Errorf("handler event = %+v", handled[0])
	}
}

func TestApplicationPanicContained(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("bomb", 1), func(sv *Services) {
					sv.Compute(5)
					panic("numeric overflow in guidance loop")
				})
				sv.StartProcess("bomb")
			})},
			{Name: "B", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(periodicTask("steady", 100, 5), func(sv *Services) {
					for {
						sv.Compute(10)
						sv.PeriodicWait()
					}
				})
				sv.StartProcess("steady")
			})},
		},
	})
	if err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	// The panic surfaced as an APPLICATION_ERROR confined to A.
	if got := m.Health().Count(hm.ErrApplicationError); got != 1 {
		t.Fatalf("application errors = %d, want 1", got)
	}
	events := m.Health().EventsFor("A")
	if len(events) != 1 || !strings.Contains(events[0].Message, "numeric overflow") {
		t.Errorf("HM events = %v", events)
	}
	// B kept running.
	if got := m.Health().EventsFor("B"); len(got) != 0 {
		t.Errorf("B affected: %v", got)
	}
	pt, _ := m.Partition("B")
	proc, _ := pt.Kernel().Lookup("steady")
	if proc.State == model.StateDormant {
		t.Error("B's process stopped")
	}
}

func TestRaiseApplicationError(t *testing.T) {
	var handled int
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateErrorHandler(func(hsv *Services, ev hm.Event) { handled++ })
				sv.CreateProcess(aperiodicTask("app", 1), func(sv *Services) {
					sv.Compute(1)
					if rc := sv.RaiseApplicationError("sensor disagreement"); rc != 0 {
						t.Errorf("RaiseApplicationError rc = %v", rc)
					}
					sv.Compute(1)
				})
				sv.StartProcess("app")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Errorf("handler invoked %d times, want 1", handled)
	}
}

func TestRaiseApplicationErrorSelfStop(t *testing.T) {
	// Without a handler the default rule stops the faulty process; the call
	// must not return.
	var after bool
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("app", 1), func(sv *Services) {
					sv.Compute(1)
					sv.RaiseApplicationError("fatal")
					after = true
				})
				sv.StartProcess("app")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	if after {
		t.Error("RaiseApplicationError returned despite stop action")
	}
	pt, _ := m.Partition("A")
	proc, _ := pt.Kernel().Lookup("app")
	if proc.State != model.StateDormant {
		t.Errorf("state = %s, want dormant", proc.State)
	}
}

// TestMemoryViolationConfinementIntegration is experiment F7 end to end: a
// process writing outside its partition's addressing space triggers a
// MEMORY_VIOLATION handled per the partition HM table, and the partition is
// restarted without affecting the other partition.
func TestMemoryViolationConfinementIntegration(t *testing.T) {
	var bWrites int
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("rogue", 1), func(sv *Services) {
					sv.Compute(1)
					// In-space write succeeds.
					if rc := sv.MemWrite(0x0010_0000, []byte("ok")); rc != 0 {
						t.Errorf("in-space write rc = %v", rc)
					}
					// Out-of-space write faults; partition cold-starts, so
					// this call never returns.
					sv.MemWrite(0x0900_0000, []byte("attack"))
					t.Error("rogue survived the violation")
				})
				sv.StartProcess("rogue")
			}),
				HMPartitionTable: hm.Table{
					hm.ErrMemoryViolation: hm.Rule{Action: hm.ActionColdStartPartition},
				}},
			{Name: "B", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(periodicTask("fine", 100, 5), func(sv *Services) {
					for {
						sv.Compute(10)
						sv.MemWrite(0x0010_0000, []byte{1, 2, 3})
						bWrites++
						sv.PeriodicWait()
					}
				})
				sv.StartProcess("fine")
			})},
		},
	})
	if err := m.Run(400); err != nil {
		t.Fatal(err)
	}
	if got := m.Health().Count(hm.ErrMemoryViolation); got < 1 {
		t.Fatal("no memory violation reported")
	}
	if got := len(m.TraceKind(obs.KindMemoryViolation)); got < 1 {
		t.Fatal("no memory violation traced")
	}
	pt, _ := m.Partition("A")
	if pt.StartCount() < 2 {
		t.Errorf("A start count = %d, want restart", pt.StartCount())
	}
	if bWrites < 3 {
		t.Errorf("B writes = %d; B should be unaffected", bWrites)
	}
}

func TestHMShutdownModuleAction(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: faultyPartitionInit(100, 120),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionShutdownModule},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(2000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("module should have halted")
	}
	if got := len(m.TraceKind(obs.KindModuleHalt)); got != 1 {
		t.Errorf("halt events = %d", got)
	}
}

func TestHMResetModuleAction(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: faultyPartitionInit(100, 120),
				HMProcessTable: hm.Table{
					hm.ErrDeadlineMissed: hm.Rule{
						Action: hm.ActionLogThreshold, Threshold: 2,
						Escalation: hm.ActionResetModule,
					},
				}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(2000); err != nil {
		t.Fatal(err)
	}
	if m.Halted() {
		t.Fatal("reset must not halt the module")
	}
	if got := len(m.TraceKind(obs.KindModuleReset)); got < 1 {
		t.Error("no module reset traced")
	}
	ptB, _ := m.Partition("B")
	if ptB.StartCount() < 2 {
		t.Errorf("B start count = %d; reset should cold start all partitions", ptB.StartCount())
	}
}

func TestSetPartitionModeTransitions(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("boot", 1), func(sv *Services) {
					sv.Compute(5)
					// Restart once, then (on the second incarnation's
					// StartCount) go idle.
					if sv.GetPartitionStatus().StartCount == 1 {
						sv.SetPartitionMode(model.ModeColdStart)
						t.Error("unreachable after cold start request")
					}
					sv.Compute(5)
					sv.SetPartitionMode(model.ModeIdle)
					t.Error("unreachable after idle request")
				})
				sv.StartProcess("boot")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(600); err != nil {
		t.Fatal(err)
	}
	pt, _ := m.Partition("A")
	if pt.StartCount() != 2 {
		t.Errorf("start count = %d, want 2", pt.StartCount())
	}
	if pt.Mode() != model.ModeIdle {
		t.Errorf("mode = %s, want idle", pt.Mode())
	}
	if got := len(m.TraceKind(obs.KindPartitionStopped)); got != 1 {
		t.Errorf("stopped events = %d", got)
	}
}

func TestDefaultDescriptorsInstalled(t *testing.T) {
	m := startModule(t, Config{
		System:     twoPartitionSystem(),
		Partitions: []PartitionConfig{{Name: "A"}, {Name: "B"}},
	})
	if got := m.Memory().MappedPages("A"); got != 96 {
		t.Errorf("A mapped pages = %d, want 96 (16+64+16)", got)
	}
	if got := len(m.Memory().Descriptors("B")); got != 3 {
		t.Errorf("B descriptors = %d, want 3", got)
	}
}

func TestCustomDescriptors(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Descriptors: []mmu.Descriptor{
				{Section: mmu.SectionData, Base: 0, Size: 2 * mmu.PageSize,
					AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
			}},
			{Name: "B"},
		},
	})
	if got := m.Memory().MappedPages("A"); got != 2 {
		t.Errorf("A mapped pages = %d, want 2", got)
	}
}
