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

// TestAnalysisSoundAgainstSimulation cross-validates the two temporal
// layers of the library: for randomly synthesized partition scheduling
// tables and random task sets, whenever the offline supply-bound analysis
// (internal/sched) declares a task set schedulable, the executed module must
// never record a deadline miss. The analysis is sufficient-only, so the
// converse is not asserted.
func TestAnalysisSoundAgainstSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(20090625)) // DSN 2009
	schedulableTrials := 0
	for trial := 0; trial < 40; trial++ {
		trial := trial
		// Random two-partition requirements over a 100..400-tick MTF base.
		cycleA := tick.Ticks(50 * (1 + rng.Intn(4)))
		cycleB := tick.Ticks(50 * (1 + rng.Intn(4)))
		reqs := []model.Requirement{
			{Partition: "A", Cycle: cycleA, Budget: tick.Ticks(10 + rng.Intn(int(cycleA)/2))},
			{Partition: "B", Cycle: cycleB, Budget: tick.Ticks(10 + rng.Intn(int(cycleB)/3))},
		}
		table, err := sched.Synthesize(fmt.Sprintf("rand%d", trial), reqs)
		if err != nil {
			continue // infeasible requirement draw
		}
		sys := &model.System{
			Partitions: []model.PartitionName{"A", "B"},
			Schedules:  []model.Schedule{*table},
		}
		if r := model.Verify(sys); !r.OK() {
			t.Fatalf("trial %d: synthesized table fails verification:\n%s", trial, r)
		}

		// Random task set for A: 1..3 periodic tasks with deadline=period.
		nTasks := 1 + rng.Intn(3)
		ts := model.TaskSet{Partition: "A"}
		hyper := table.MTF
		for i := 0; i < nTasks; i++ {
			period := tick.Ticks(100 * (1 + rng.Intn(6)))
			wcet := tick.Ticks(1 + rng.Intn(15))
			ts.Tasks = append(ts.Tasks, model.TaskSpec{
				Name:         fmt.Sprintf("t%d", i),
				Period:       period,
				Deadline:     period,
				BasePriority: model.Priority(i),
				WCET:         wcet,
				Periodic:     true,
			})
			h, err := tick.LCM(hyper, period)
			if err != nil {
				t.Fatal(err)
			}
			hyper = h
		}
		res, err := sched.AnalyzePartition(table, ts)
		if err != nil {
			t.Fatalf("trial %d: analysis error: %v", trial, err)
		}
		if !res.Schedulable() {
			continue
		}
		schedulableTrials++

		// Execute: every task computes exactly its WCET per activation.
		m := startModule(t, Config{
			System:        sys,
			TraceCapacity: 64,
			Partitions: []PartitionConfig{
				{Name: "A", Init: normalInit(func(sv *Services) {
					for _, task := range ts.Tasks {
						spec := task
						sv.CreateProcess(spec, func(sv *Services) {
							for {
								sv.Compute(spec.WCET)
								sv.PeriodicWait()
							}
						})
						sv.StartProcess(spec.Name)
					}
				})},
				{Name: "B", Init: normalInit(nil)},
			},
		})
		if err := m.Run(2 * hyper); err != nil {
			t.Fatal(err)
		}
		if misses := m.TraceKind(obs.KindDeadlineMiss); len(misses) != 0 {
			t.Fatalf("trial %d: analysis said schedulable but simulation missed:\ntable: %+v\ntasks: %+v\nWCRTs: %+v\nmisses: %v",
				trial, table.Windows, ts.Tasks, res.Tasks, misses)
		}
		m.Shutdown()
	}
	if schedulableTrials < 5 {
		t.Fatalf("only %d schedulable trials exercised; generator too strict", schedulableTrials)
	}
}
