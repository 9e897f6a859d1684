package core

import (
	"fmt"
	"math/rand"
	"testing"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/sched"
	"air/internal/tick"
)

// TestTemporalPartitioningGuarantee validates the architecture's central
// claim end to end: for randomly synthesized, verified scheduling tables,
// the executed module delivers to every partition exactly the window time
// the table assigns — in every single MTF, regardless of what the
// partitions' processes do (here: CPU hogs that never yield). Robust
// temporal partitioning means misbehaving applications cannot shift window
// boundaries by even one tick.
func TestTemporalPartitioningGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(653))
	for trial := 0; trial < 10; trial++ {
		reqs := []model.Requirement{
			{Partition: "A", Cycle: 100, Budget: tick.Ticks(10 + rng.Intn(30))},
			{Partition: "B", Cycle: 200, Budget: tick.Ticks(10 + rng.Intn(60))},
			{Partition: "C", Cycle: 400, Budget: tick.Ticks(10 + rng.Intn(100))},
		}
		table, err := sched.Synthesize(fmt.Sprintf("guarantee%d", trial), reqs)
		if err != nil {
			continue
		}
		sys := &model.System{
			Partitions: []model.PartitionName{"A", "B", "C"},
			Schedules:  []model.Schedule{*table},
		}
		hogInit := normalInit(func(sv *Services) {
			// A pure CPU hog: computes forever, never yields voluntarily.
			sv.CreateProcess(model.TaskSpec{
				Name: "hog", Deadline: tick.Infinity, BasePriority: 1, WCET: 1,
			}, func(sv *Services) {
				for {
					sv.Compute(1 << 30)
				}
			})
			sv.StartProcess("hog")
		})
		m := startModule(t, Config{
			System:        sys,
			TraceCapacity: -1,
			Partitions: []PartitionConfig{
				{Name: "A", Init: hogInit},
				{Name: "B", Init: hogInit},
				{Name: "C", Init: hogInit},
			},
		})

		const mtfs = 5
		active := make(map[model.PartitionName][]tick.Ticks) // per-MTF counts
		for _, p := range sys.Partitions {
			active[p] = make([]tick.Ticks, mtfs)
		}
		for frame := 0; frame < mtfs; frame++ {
			for i := tick.Ticks(0); i < table.MTF; i++ {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				heir := m.ActivePartition()
				if !heir.Idle {
					active[heir.Partition][frame]++
				}
			}
		}
		for _, p := range sys.Partitions {
			want := table.SuppliedTime(p)
			for frame, got := range active[p] {
				if got != want {
					t.Fatalf("trial %d: partition %s got %d ticks in MTF %d, table assigns %d\nwindows: %v",
						trial, p, got, frame, want, table.WindowsOf(p))
				}
			}
		}
		m.Shutdown()
	}
}

// TestDetectionLatencyBoundedByBlackout validates the Sect. 5 latency
// argument quantitatively: over many fault phases, the observed detection
// latency of a deadline missed while the partition is inactive never
// exceeds the partition's maximum supply blackout (plus the active-case
// one-tick strictness), and the bound is approached.
func TestDetectionLatencyBoundedByBlackout(t *testing.T) {
	sys := model.Fig8System()
	chi1 := &sys.Schedules[0]
	supply := sched.NewSupply(chi1, "P1")
	bound := supply.BlackoutMax() // 1100 for P1 under chi1

	var worst tick.Ticks
	for _, capacity := range []tick.Ticks{150, 199, 210, 500, 900, 1150, 1250} {
		cfg := Config{
			System:        sys,
			TraceCapacity: 64,
			Partitions: []PartitionConfig{
				{Name: "P1", Init: normalInit(func(sv *Services) {
					sv.CreateProcess(model.TaskSpec{
						Name: "f", Period: 1300, Deadline: capacity,
						BasePriority: 1, WCET: tick.Min(capacity, 1300), Periodic: true,
					}, func(sv *Services) {
						for {
							sv.Compute(1 << 30)
						}
					})
					sv.StartProcess("f")
				})},
				{Name: "P2", Init: normalInit(nil)},
				{Name: "P3", Init: normalInit(nil)},
				{Name: "P4", Init: normalInit(nil)},
			},
		}
		m := startModule(t, cfg)
		if err := m.Run(3 * 1300); err != nil {
			t.Fatal(err)
		}
		misses := m.TraceKind(obs.KindDeadlineMiss)
		if len(misses) == 0 {
			t.Fatalf("capacity %d: no miss detected", capacity)
		}
		latency := misses[0].Time - capacity // deadline was at t=capacity
		if latency < 1 {
			t.Fatalf("capacity %d: detection before expiry (latency %d)", capacity, latency)
		}
		if latency > bound+1 {
			t.Errorf("capacity %d: latency %d exceeds blackout bound %d",
				capacity, latency, bound)
		}
		if latency > worst {
			worst = latency
		}
		m.Shutdown()
	}
	// The bound must be approached (within one window length) by some phase.
	if worst < bound-200 {
		t.Errorf("worst observed latency %d far below bound %d; phases too tame", worst, bound)
	}
}
