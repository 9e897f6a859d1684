package core

import (
	"testing"

	"air/internal/apex"
	"air/internal/ipc"
	"air/internal/model"
	"air/internal/obs"
)

// TestWarmRestartIdempotentInit: warm start re-runs the initialization with
// the process table, ports and objects preserved — re-creation calls return
// NoAction and the partition resumes cleanly (the pattern Sect. 4.2's
// ScheduleChangeAction relies on).
func TestWarmRestartIdempotentInit(t *testing.T) {
	var createRCs, portRCs []apex.ReturnCode
	var activations int
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Sampling: []ipc.SamplingConfig{{
			Name: "tlm", MaxMessage: 16, Refresh: 0,
			Source:       ipc.PortRef{Partition: "A", Port: "out"},
			Destinations: []ipc.PortRef{{Partition: "B", Port: "in"}},
		}},
		Partitions: []PartitionConfig{
			{Name: "A", Init: func(sv *Services) {
				portRCs = append(portRCs, sv.CreateSamplingPort("out", apex.Source))
				_, rc := sv.CreateProcess(periodicTask("w", 100, 3), func(sv *Services) {
					for {
						sv.Compute(10)
						activations++
						sv.WriteSamplingMessage("out", []byte("ok"))
						sv.PeriodicWait()
					}
				})
				createRCs = append(createRCs, rc)
				sv.StartProcess("w")
				sv.CreateSemaphore("mutex", 1, 1, apex.FIFO)
				sv.SetPartitionMode(model.ModeNormal)
			}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(250); err != nil {
		t.Fatal(err)
	}
	before := activations
	if before == 0 {
		t.Fatal("no activations before restart")
	}

	// Warm restart from the kernel side.
	pt, _ := m.Partition("A")
	pt.KernelServices().SetPartitionMode(model.ModeNormal) // no-op sanity
	ptRestart(t, pt)

	if err := m.Run(300); err != nil {
		t.Fatal(err)
	}
	if activations <= before {
		t.Errorf("no progress after warm restart: %d → %d", before, activations)
	}
	if len(createRCs) != 2 || createRCs[0] != apex.NoError || createRCs[1] != apex.NoAction {
		t.Errorf("create RCs across restarts = %v, want [NO_ERROR NO_ACTION]", createRCs)
	}
	if len(portRCs) != 2 || portRCs[1] != apex.NoAction {
		t.Errorf("port RCs across restarts = %v", portRCs)
	}
	if pt.StartCount() != 2 {
		t.Errorf("start count = %d", pt.StartCount())
	}
	if pt.Mode() != model.ModeNormal {
		t.Errorf("mode = %s", pt.Mode())
	}
	// The semaphore survived the warm start.
	if st, rc := pt.KernelServices().GetSemaphoreStatus("mutex"); rc != apex.NoError || st.Max != 1 {
		t.Errorf("semaphore lost on warm start: %+v %v", st, rc)
	}
}

// ptRestart triggers a warm restart through the public recovery machinery.
func ptRestart(t *testing.T, pt *Partition) {
	t.Helper()
	pt.restart(model.ModeWarmStart)
}

// TestColdRestartWipesState: cold start recreates the process table and
// clears objects — init's creations return NoError again.
func TestColdRestartWipesState(t *testing.T) {
	var createRCs []apex.ReturnCode
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: func(sv *Services) {
				_, rc := sv.CreateProcess(periodicTask("w", 100, 3), func(sv *Services) {
					for {
						sv.Compute(10)
						sv.PeriodicWait()
					}
				})
				createRCs = append(createRCs, rc)
				sv.StartProcess("w")
				sv.SetPartitionMode(model.ModeNormal)
			}},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if err := m.Run(150); err != nil {
		t.Fatal(err)
	}
	pt, _ := m.Partition("A")
	pt.restart(model.ModeColdStart)
	if err := m.Run(150); err != nil {
		t.Fatal(err)
	}
	if len(createRCs) != 2 || createRCs[1] != apex.NoError {
		t.Errorf("cold restart create RCs = %v, want fresh NO_ERROR", createRCs)
	}
	if misses := m.TraceKind(obs.KindDeadlineMiss); len(misses) != 0 {
		t.Errorf("restart caused misses: %v", misses)
	}
}
