package core

import (
	"errors"
	"testing"

	"air/internal/apex"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/pos"
	"air/internal/tick"
)

// TestTimedWait: the process sleeps for at least the requested delay.
func TestTimedWait(t *testing.T) {
	var woke []tick.Ticks
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(aperiodicTask("sleeper", 1), func(sv *Services) {
			sv.Compute(2)
			before := sv.GetTime()
			if rc := sv.TimedWait(20); rc != apex.NoError {
				t.Errorf("TimedWait = %v", rc)
			}
			woke = append(woke, sv.GetTime()-before)
			// Zero delay yields the rest of the tick but resumes.
			if rc := sv.TimedWait(0); rc != apex.NoError {
				t.Errorf("TimedWait(0) = %v", rc)
			}
			// Invalid delays.
			if rc := sv.TimedWait(-1); rc != apex.InvalidParam {
				t.Errorf("TimedWait(-1) = %v", rc)
			}
			if rc := sv.TimedWait(tick.Infinity); rc != apex.InvalidParam {
				t.Errorf("TimedWait(∞) = %v", rc)
			}
			sv.StopSelf()
		})
		sv.StartProcess("sleeper")
	})))
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 1 || woke[0] < 20 {
		t.Errorf("slept %v, want ≥ 20", woke)
	}
}

func TestSuspendResumeAcrossProcesses(t *testing.T) {
	var resumedAt tick.Ticks
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(aperiodicTask("worker", 5), func(sv *Services) {
			sv.Compute(1)
			if rc := sv.SuspendSelf(); rc != apex.NoError {
				t.Errorf("SuspendSelf = %v", rc)
			}
			resumedAt = sv.GetTime()
			sv.StopSelf()
		})
		sv.CreateProcess(aperiodicTask("controller", 7), func(sv *Services) {
			sv.Compute(10)
			if rc := sv.ResumeProcess("worker"); rc != apex.NoError {
				t.Errorf("Resume = %v", rc)
			}
			sv.StopSelf()
		})
		sv.StartProcess("worker")
		sv.StartProcess("controller")
	})))
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if resumedAt < 11 {
		t.Errorf("worker resumed at %d, want after controller's compute", resumedAt)
	}
}

func TestSuspendOtherProcess(t *testing.T) {
	var loCount int
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(aperiodicTask("lo", 9), func(sv *Services) {
			for {
				sv.Compute(1)
				loCount++
			}
		})
		sv.CreateProcess(aperiodicTask("boss", 1), func(sv *Services) {
			sv.Compute(5)
			if rc := sv.SuspendProcess("lo"); rc != apex.NoError {
				t.Errorf("Suspend = %v", rc)
			}
			if rc := sv.SuspendProcess("nope"); rc != apex.InvalidParam {
				t.Errorf("Suspend unknown = %v", rc)
			}
			sv.StopSelf()
		})
		sv.StartProcess("lo")
		sv.StartProcess("boss")
	})))
	if err := m.Run(300); err != nil {
		t.Fatal(err)
	}
	// lo ran only before the suspension: boss computed 5, so lo got at most
	// the window remainder of the first ticks — then froze.
	if loCount > 50 {
		t.Errorf("suspended process kept computing: %d", loCount)
	}
	pt, _ := m.Partition("A")
	proc, _ := pt.Kernel().Lookup("lo")
	if proc.State != model.StateWaiting || !proc.Suspended {
		t.Errorf("lo state = %s suspended=%v", proc.State, proc.Suspended)
	}
}

func TestSetPriorityService(t *testing.T) {
	var order []string
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(aperiodicTask("a", 5), func(sv *Services) {
			sv.Compute(10)
			order = append(order, "a")
			sv.StopSelf()
		})
		sv.CreateProcess(aperiodicTask("b", 6), func(sv *Services) {
			sv.Compute(10)
			order = append(order, "b")
			sv.StopSelf()
		})
		sv.StartProcess("a")
		sv.StartProcess("b")
		// Boost b above a before normal mode begins.
		if rc := sv.SetPriority("b", 1); rc != apex.NoError {
			t.Errorf("SetPriority = %v", rc)
		}
		if rc := sv.SetPriority("zz", 1); rc != apex.InvalidParam {
			t.Errorf("SetPriority unknown = %v", rc)
		}
	})))
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "b" {
		t.Errorf("completion order = %v, want b first", order)
	}
}

func TestProcessIntrospectionServices(t *testing.T) {
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(periodicTask("p", 100, 4), func(sv *Services) {
			id, rc := sv.GetMyID()
			if rc != apex.NoError || id == pos.InvalidProcess {
				t.Errorf("GetMyID = %v %v", id, rc)
			}
			if sv.MyName() != "p" {
				t.Errorf("MyName = %q", sv.MyName())
			}
			st, rc := sv.GetProcessStatus("p")
			if rc != apex.NoError || st.State != model.StateRunning ||
				st.BasePriority != 4 || !st.Periodic {
				t.Errorf("own status = %+v %v", st, rc)
			}
			sv.StopSelf()
		})
		// Kernel-context introspection.
		if _, rc := sv.GetMyID(); rc != apex.InvalidMode {
			t.Errorf("kernel GetMyID rc = %v", rc)
		}
		if id, rc := sv.GetProcessID("p"); rc != apex.NoError || id == pos.InvalidProcess {
			t.Errorf("GetProcessID = %v %v", id, rc)
		}
		if _, rc := sv.GetProcessID("zz"); rc != apex.InvalidConfig {
			t.Errorf("GetProcessID unknown = %v", rc)
		}
		st, rc := sv.GetProcessStatus("p")
		if rc != apex.NoError || st.State != model.StateDormant {
			t.Errorf("dormant status = %+v %v", st, rc)
		}
		if _, rc := sv.GetProcessStatus("zz"); rc != apex.InvalidConfig {
			t.Errorf("status unknown = %v", rc)
		}
		sv.StartProcess("p")
	})))
	if err := m.Run(50); err != nil {
		t.Fatal(err)
	}
}

func TestCreateProcessRules(t *testing.T) {
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		spec := periodicTask("x", 100, 4)
		if _, rc := sv.CreateProcess(spec, nil); rc != apex.NoError {
			t.Errorf("create = %v", rc)
		}
		// Identical re-creation (warm start idempotency): NoAction.
		if _, rc := sv.CreateProcess(spec, nil); rc != apex.NoAction {
			t.Errorf("identical recreate = %v", rc)
		}
		// Same name, different attributes: InvalidConfig.
		spec2 := spec
		spec2.WCET = 2
		if _, rc := sv.CreateProcess(spec2, nil); rc != apex.InvalidConfig {
			t.Errorf("conflicting recreate = %v", rc)
		}
		// Invalid spec: InvalidParam.
		if _, rc := sv.CreateProcess(model.TaskSpec{Name: "bad"}, nil); rc != apex.InvalidParam {
			t.Errorf("invalid spec = %v", rc)
		}
	})))
	// Creation after initialization: InvalidMode.
	pt, _ := m.Partition("A")
	sv := pt.KernelServices()
	if _, rc := sv.CreateProcess(periodicTask("late", 100, 4), nil); rc != apex.InvalidMode {
		t.Errorf("create in normal mode = %v", rc)
	}
	// Start/stop services and their edges.
	if rc := sv.StartProcess("zz"); rc != apex.InvalidParam {
		t.Errorf("start unknown = %v", rc)
	}
	if rc := sv.StartProcess("x"); rc != apex.NoError {
		t.Errorf("start = %v", rc)
	}
	if rc := sv.StartProcess("x"); rc != apex.NoAction {
		t.Errorf("double start = %v", rc)
	}
	if rc := sv.StopProcess("zz"); rc != apex.InvalidParam {
		t.Errorf("stop unknown = %v", rc)
	}
	if rc := sv.StopProcess("x"); rc != apex.NoError {
		t.Errorf("stop = %v", rc)
	}
	if rc := sv.StopProcess("x"); rc != apex.NoAction {
		t.Errorf("stop dormant = %v", rc)
	}
	if rc := sv.DelayedStartProcess("x", -1); rc != apex.InvalidParam {
		t.Errorf("delayed start negative = %v", rc)
	}
	if rc := sv.DelayedStartProcess("x", 10); rc != apex.NoError {
		t.Errorf("delayed start = %v", rc)
	}
	if rc := sv.DelayedStartProcess("zz", 10); rc != apex.InvalidParam {
		t.Errorf("delayed start unknown = %v", rc)
	}
}

func TestReplenishService(t *testing.T) {
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(model.TaskSpec{
			Name: "r", Period: 100, Deadline: 40,
			BasePriority: 1, WCET: 30, Periodic: true,
		}, func(sv *Services) {
			for {
				sv.Compute(30)
				// Takes 30 of capacity 40; replenish before the edge so a
				// further 30 fits without missing.
				if rc := sv.Replenish(50); rc != apex.NoError {
					t.Errorf("Replenish = %v", rc)
				}
				sv.Compute(15)
				if rc := sv.Replenish(0); rc != apex.InvalidParam {
					t.Errorf("Replenish(0) = %v", rc)
				}
				sv.PeriodicWait()
			}
		})
		sv.StartProcess("r")
	})))
	if err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	if misses := m.TraceKind(obs.KindDeadlineMiss); len(misses) != 0 {
		t.Errorf("replenished process missed: %v", misses)
	}
}

func TestPreemptionLockService(t *testing.T) {
	var order []string
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(aperiodicTask("lo", 9), func(sv *Services) {
			if lvl := sv.LockPreemption(); lvl != 1 {
				t.Errorf("lock level = %d", lvl)
			}
			sv.Compute(10) // hi becomes ready meanwhile but cannot preempt
			order = append(order, "lo-critical-done")
			if lvl := sv.UnlockPreemption(); lvl != 0 {
				t.Errorf("unlock level = %d", lvl)
			}
			sv.Compute(10)
			order = append(order, "lo-done")
			sv.StopSelf()
		})
		sv.CreateProcess(aperiodicTask("hi", 1), func(sv *Services) {
			order = append(order, "hi-done")
			sv.StopSelf()
		})
		sv.StartProcess("lo")
		sv.DelayedStartProcess("hi", 3)
	})))
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	want := []string{"lo-critical-done", "hi-done", "lo-done"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParavirtualizedClockViaServices(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Policy: pos.PolicyRoundRobin, Init: normalInit(func(sv *Services) {
				// A "Linux" guest trying to take over the clock.
				if err := sv.DisableClockInterrupts(); !errors.Is(err, pos.ErrParavirtualized) {
					t.Errorf("DisableClockInterrupts = %v", err)
				}
			})},
			{Name: "B"},
		},
	})
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinPartitionIntegration(t *testing.T) {
	// A non-real-time (round-robin) partition shares its window fairly
	// among equal processes while the RT partition is unaffected.
	counts := map[string]int{}
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Policy: pos.PolicyRoundRobin, Init: normalInit(func(sv *Services) {
				for _, name := range []string{"sh1", "sh2", "sh3"} {
					n := name
					sv.CreateProcess(model.TaskSpec{
						Name: n, Deadline: tick.Infinity, BasePriority: 5, WCET: 1,
					}, func(sv *Services) {
						for {
							sv.Compute(1)
							counts[n]++
						}
					})
					sv.StartProcess(n)
				}
			})},
			{Name: "B", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(periodicTask("rt", 100, 1), func(sv *Services) {
					for {
						sv.Compute(10)
						counts["rt"]++
						sv.PeriodicWait()
					}
				})
				sv.StartProcess("rt")
			})},
		},
	})
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Fair sharing: 500 A-ticks over 3 processes ≈ 166/167 each.
	for _, n := range []string{"sh1", "sh2", "sh3"} {
		if counts[n] < 160 || counts[n] > 172 {
			t.Errorf("%s ran %d ticks, want ≈166", n, counts[n])
		}
	}
	if counts["rt"] != 10 {
		t.Errorf("rt activations = %d, want 10", counts["rt"])
	}
	if misses := m.TraceKind(obs.KindDeadlineMiss); len(misses) != 0 {
		t.Errorf("misses: %v", misses)
	}
}

func TestGetPartitionStatusService(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", System: true},
			{Name: "B"},
		},
	})
	pt, _ := m.Partition("A")
	st := pt.KernelServices().GetPartitionStatus()
	if st.Name != "A" || !st.System || st.Mode != model.ModeNormal || st.StartCount != 1 {
		t.Errorf("status = %+v", st)
	}
	ptB, _ := m.Partition("B")
	if ptB.KernelServices().GetPartitionStatus().System {
		t.Error("B must not be a system partition")
	}
	// SET_PARTITION_MODE edge cases from kernel context.
	svB := ptB.KernelServices()
	if rc := svB.SetPartitionMode(model.ModeNormal); rc != apex.NoAction {
		t.Errorf("re-normal = %v", rc)
	}
	if rc := svB.SetPartitionMode(model.ModeColdStart); rc != apex.InvalidMode {
		t.Errorf("kernel-context cold start = %v", rc)
	}
	if rc := svB.SetPartitionMode(model.OperatingMode(99)); rc != apex.InvalidParam {
		t.Errorf("bogus mode = %v", rc)
	}
	if rc := svB.SetPartitionMode(model.ModeIdle); rc != apex.NoError {
		t.Errorf("idle = %v", rc)
	}
	if ptB.Mode() != model.ModeIdle {
		t.Error("B not idle")
	}
}

func TestMemReadService(t *testing.T) {
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(aperiodicTask("io", 1), func(sv *Services) {
			sv.Compute(1)
			payload := []byte("stored state vector")
			if rc := sv.MemWrite(0x0010_0000, payload); rc != apex.NoError {
				t.Errorf("MemWrite = %v", rc)
			}
			buf := make([]byte, len(payload))
			if rc := sv.MemRead(0x0010_0000, buf); rc != apex.NoError {
				t.Errorf("MemRead = %v", rc)
			}
			if string(buf) != string(payload) {
				t.Errorf("round trip = %q", buf)
			}
			sv.StopSelf()
		})
		sv.StartProcess("io")
	})))
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
}

func TestStopOtherProcessFromProcess(t *testing.T) {
	var victimTicks int
	m := startModule(t, objTestConfig(normalInit(func(sv *Services) {
		sv.CreateProcess(aperiodicTask("victim", 9), func(sv *Services) {
			for {
				sv.Compute(1)
				victimTicks++
			}
		})
		sv.CreateProcess(aperiodicTask("killer", 1), func(sv *Services) {
			sv.Compute(5)
			if rc := sv.StopProcess("victim"); rc != apex.NoError {
				t.Errorf("StopProcess = %v", rc)
			}
			sv.StopSelf()
		})
		sv.StartProcess("victim")
		sv.StartProcess("killer")
	})))
	if err := m.Run(300); err != nil {
		t.Fatal(err)
	}
	if victimTicks != 0 {
		// killer has higher priority: victim never ran before the kill.
		t.Errorf("victim ran %d ticks", victimTicks)
	}
	pt, _ := m.Partition("A")
	proc, _ := pt.Kernel().Lookup("victim")
	if proc.State != model.StateDormant {
		t.Errorf("victim state = %s", proc.State)
	}
}
