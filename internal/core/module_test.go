package core

import (
	"errors"
	"testing"

	"air/internal/model"
	"air/internal/obs"
)

func TestNewModuleValidation(t *testing.T) {
	if _, err := NewModule(Config{}); !errors.Is(err, ErrModelInvalid) {
		t.Errorf("nil system = %v", err)
	}
	badSys := twoPartitionSystem()
	badSys.Schedules[0].Windows[1].Duration = 60 // beyond MTF
	if _, err := NewModule(Config{
		System:     badSys,
		Partitions: []PartitionConfig{{Name: "A"}, {Name: "B"}},
	}); !errors.Is(err, ErrModelInvalid) {
		t.Errorf("invalid model = %v", err)
	}
	if _, err := NewModule(Config{
		System:     twoPartitionSystem(),
		Partitions: []PartitionConfig{{Name: "A"}},
	}); !errors.Is(err, ErrPartitionMismatch) {
		t.Errorf("missing partition config = %v", err)
	}
	if _, err := NewModule(Config{
		System:     twoPartitionSystem(),
		Partitions: []PartitionConfig{{Name: "A"}, {Name: "Z"}},
	}); !errors.Is(err, ErrPartitionMismatch) {
		t.Errorf("unknown partition config = %v", err)
	}
	if _, err := NewModule(Config{
		System:     twoPartitionSystem(),
		Partitions: []PartitionConfig{{Name: "A"}, {Name: "A"}},
	}); !errors.Is(err, ErrPartitionMismatch) {
		t.Errorf("duplicate partition config = %v", err)
	}
}

func TestModuleLifecycleErrors(t *testing.T) {
	m, err := NewModule(Config{
		System:     twoPartitionSystem(),
		Partitions: []PartitionConfig{{Name: "A"}, {Name: "B"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Step(); !errors.Is(err, ErrNotStarted) {
		t.Errorf("Step before Start = %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Errorf("double Start = %v", err)
	}
	m.Shutdown()
	if err := m.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after Shutdown = %v", err)
	}
	if !m.Halted() {
		t.Error("Halted() = false")
	}
	// Run tolerates the halt.
	if err := m.Run(10); err != nil {
		t.Errorf("Run after halt = %v", err)
	}
}

// TestPartitionTimeline checks that the active partition tracks the PST
// windows tick by tick over several MTFs.
func TestPartitionTimeline(t *testing.T) {
	m := startModule(t, Config{
		System:     twoPartitionSystem(),
		Partitions: []PartitionConfig{{Name: "A"}, {Name: "B"}},
	})
	for i := 0; i < 250; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		now := m.Now()
		want := model.PartitionName("A")
		if now%100 >= 50 {
			want = "B"
		}
		got := m.ActivePartition()
		if got.Idle || got.Partition != want {
			t.Fatalf("tick %d: active = %v, want %s", now, got, want)
		}
	}
	if m.Now() != 250 {
		t.Errorf("Now = %d", m.Now())
	}
}

// TestProcessesExecuteWithinWindows runs a periodic process per partition
// and checks both make progress proportional to their windows.
func TestProcessesExecuteWithinWindows(t *testing.T) {
	counts := map[model.PartitionName]int{}
	mkInit := func(p model.PartitionName) InitFunc {
		return normalInit(func(sv *Services) {
			sv.CreateProcess(periodicTask("work", 100, 5), func(sv *Services) {
				for {
					sv.Compute(30)
					counts[p]++
					sv.PeriodicWait()
				}
			})
			sv.StartProcess("work")
		})
	}
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: mkInit("A")},
			{Name: "B", Init: mkInit("B")},
		},
	})
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Ten MTFs: each process completes ten activations (30 ticks of work in
	// a 50-tick window per 100-tick period).
	if counts["A"] != 10 || counts["B"] != 10 {
		t.Errorf("activation counts = %v, want 10 each", counts)
	}
	// No deadline misses for well-behaved processes.
	if misses := m.TraceKind(obs.KindDeadlineMiss); len(misses) != 0 {
		t.Errorf("unexpected misses: %v", misses)
	}
}

// TestDeterminism runs the same configuration twice and requires identical
// traces — the strict-alternation execution model is reproducible.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		m := startModule(t, Config{
			System: twoPartitionSystem(),
			Partitions: []PartitionConfig{
				{Name: "A", Init: normalInit(func(sv *Services) {
					sv.CreateProcess(periodicTask("hi", 50, 1), func(sv *Services) {
						for {
							sv.Compute(10)
							sv.PeriodicWait()
						}
					})
					sv.CreateProcess(periodicTask("lo", 100, 9), func(sv *Services) {
						for {
							sv.Compute(20)
							sv.ReportApplicationMessage("lo done")
							sv.PeriodicWait()
						}
					})
					sv.StartProcess("hi")
					sv.StartProcess("lo")
				})},
				{Name: "B", Init: normalInit(nil)},
			},
		})
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, e := range m.Trace() {
			lines = append(lines, e.String())
		}
		m.Shutdown()
		return lines
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("trace diverges at %d:\n%s\n%s", i, first[i], second[i])
		}
	}
	if len(first) == 0 {
		t.Fatal("no trace recorded")
	}
}

// TestPriorityPreemptionAcrossProcesses verifies eq. (14) end to end: a
// higher-priority process released mid-window preempts the lower one.
func TestPriorityPreemptionAcrossProcesses(t *testing.T) {
	var order []string
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(periodicTask("hi", 100, 1), func(sv *Services) {
					for {
						sv.Compute(5)
						order = append(order, "hi")
						sv.PeriodicWait()
					}
				})
				sv.CreateProcess(periodicTask("lo", 100, 9), func(sv *Services) {
					for {
						sv.Compute(40)
						order = append(order, "lo")
						sv.PeriodicWait()
					}
				})
				// Low-priority starts immediately; high-priority released
				// with a delay landing inside the window.
				sv.StartProcess("lo")
				sv.DelayedStartProcess("hi", 10)
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	// hi must complete before lo despite starting later: it preempts.
	if len(order) < 2 || order[0] != "hi" || order[1] != "lo" {
		t.Fatalf("completion order = %v, want hi before lo", order)
	}
}

func TestTraceAccessors(t *testing.T) {
	m := startModule(t, Config{
		System:     twoPartitionSystem(),
		Partitions: []PartitionConfig{{Name: "A"}, {Name: "B"}},
	})
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	all := m.Trace()
	if len(all) == 0 {
		t.Fatal("empty trace")
	}
	switches := m.TraceKind(obs.KindPartitionSwitch)
	if len(switches) == 0 {
		t.Fatal("no partition switches traced")
	}
	for _, e := range switches {
		if e.Kind != obs.KindPartitionSwitch {
			t.Fatalf("TraceKind returned %v", e.Kind)
		}
		if e.String() == "" {
			t.Fatal("empty event string")
		}
	}
	if _, err := m.Partition("A"); err != nil {
		t.Errorf("Partition(A): %v", err)
	}
	if _, err := m.Partition("Z"); !errors.Is(err, ErrUnknownPartitionID) {
		t.Errorf("Partition(Z): %v", err)
	}
	if got := m.Partitions(); len(got) != 2 || got[0] != "A" {
		t.Errorf("Partitions() = %v", got)
	}
	if m.Memory() == nil || m.Router() == nil || m.Health() == nil {
		t.Error("accessors returned nil")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []obs.Kind{
		obs.KindPartitionSwitch, obs.KindScheduleSwitch, obs.KindDeadlineMiss, obs.KindHMAction,
		obs.KindPartitionRestart, obs.KindPartitionStopped, obs.KindProcessStopped,
		obs.KindProcessRestarted, obs.KindApplicationMessage, obs.KindModuleReset, obs.KindModuleHalt,
		obs.KindMemoryViolation,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d string %q duplicate or empty", k, s)
		}
		seen[s] = true
	}
	if obs.Kind(99).String() != "EventKind(99)" {
		t.Error("unknown kind string wrong")
	}
}

func TestTraceBounded(t *testing.T) {
	m := startModule(t, Config{
		System:        twoPartitionSystem(),
		Partitions:    []PartitionConfig{{Name: "A"}, {Name: "B"}},
		TraceCapacity: 4,
	})
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Trace()); got > 4 {
		t.Errorf("trace length %d exceeds capacity", got)
	}
	// Disabled tracing.
	m2 := startModule(t, Config{
		System:        twoPartitionSystem(),
		Partitions:    []PartitionConfig{{Name: "A"}, {Name: "B"}},
		TraceCapacity: -1,
	})
	if err := m2.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(m2.Trace()) != 0 {
		t.Error("disabled trace recorded events")
	}
}

func TestModelOnlyProcessConsumesTime(t *testing.T) {
	// A process created with a nil body acts as a pure CPU burner: it
	// starves lower-priority processes but consumes time so the partition
	// advances.
	executed := false
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("hog", 1), nil)
				sv.CreateProcess(aperiodicTask("starved", 5), func(sv *Services) {
					executed = true
				})
				sv.StartProcess("hog")
				sv.StartProcess("starved")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	if executed {
		t.Error("lower-priority process ran despite the hog")
	}
}

func TestScheduleStatusAccessor(t *testing.T) {
	m := startModule(t, Config{
		System:     twoPartitionSystem(),
		Partitions: []PartitionConfig{{Name: "A"}, {Name: "B"}},
	})
	st := m.ScheduleStatus()
	if st.CurrentName != "main" || st.NextName != "main" || st.LastSwitch != 0 {
		t.Errorf("status = %+v", st)
	}
}
