package workload

import (
	"bytes"
	"reflect"
	"testing"

	"air/internal/core"
	"air/internal/obs"
	"air/internal/recovery"
	"air/internal/tick"
	"air/internal/timeline"
)

// equivalenceScenarios is the committed scenario set the compiled tick
// engine must reproduce byte for byte: fault-free, each fault kind the
// catalogue defines, a schedule switch, and a recovery-managed storm.
func equivalenceScenarios() map[string]Options {
	pol := recovery.DefaultPolicy()
	s := map[string]Options{
		"fault_free":      {},
		"schedule_switch": {FDIRSwitchOnStale: 2, Faults: []FaultSpec{{Kind: FaultDeadlineOverrun}}},
		"recovery_storm":  {Recovery: &pol, Faults: []FaultSpec{{Kind: FaultRestartStorm}}},
	}
	for _, k := range FaultKinds() {
		s["fault_"+k.String()] = Options{Faults: []FaultSpec{{Kind: k}}}
	}
	return s
}

func runTraced(t *testing.T, cfg core.Config, n tick.Ticks) (trace, health []byte, metrics any) {
	t.Helper()
	m, err := core.NewModule(cfg)
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	defer m.Shutdown()
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := m.Run(n); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var tb, hb bytes.Buffer
	if err := m.WriteTrace(&tb); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := m.WriteHealthLog(&hb); err != nil {
		t.Fatalf("WriteHealthLog: %v", err)
	}
	return tb.Bytes(), hb.Bytes(), m.Metrics()
}

// TestCompiledScheduleEquivalence proves the paper's sorted-list deadline
// queue, which every partition runs by default, is observationally identical
// to the AVL tree it is ablated against (Sect. 5.3): the full JSONL trace,
// the health log and the metrics snapshot must match byte for byte on every
// committed scenario. The Partition Scheduler's compiled tables are checked
// against Algorithm 1 by pmk's TestSchedulerLockstep.
func TestCompiledScheduleEquivalence(t *testing.T) {
	const horizon = 8 * forkMTF
	for name, opts := range equivalenceScenarios() { //air:allow(maprange): subtests; t.Run output is name-keyed
		t.Run(name, func(t *testing.T) {
			trace1, health1, metrics1 := runTraced(t, Config(opts), horizon)

			tree := Config(opts)
			for i := range tree.Partitions {
				tree.Partitions[i].Queue = core.QueueTree
			}
			trace2, health2, metrics2 := runTraced(t, tree, horizon)

			if !bytes.Equal(trace1, trace2) {
				t.Errorf("sorted-list trace differs from AVL-tree trace (%d vs %d bytes)",
					len(trace1), len(trace2))
			}
			if !bytes.Equal(health1, health2) {
				t.Errorf("sorted-list health log differs from AVL-tree health log")
			}
			if !reflect.DeepEqual(metrics1, metrics2) {
				t.Errorf("sorted-list metrics differ from AVL-tree metrics")
			}
		})
	}
}

// recorder is a sink that keeps every event it receives.
type recorder struct{ events []obs.Event }

func (r *recorder) Emit(e obs.Event) { r.events = append(r.events, e) }

// runObserved runs cfg with the timeline analyzer attached between two
// recording sinks, and returns what each sink received.
func runObserved(t *testing.T, cfg core.Config, n tick.Ticks) (before, after []obs.Event) {
	t.Helper()
	first, last := &recorder{}, &recorder{}
	cfg.Sinks = append(cfg.Sinks, first)
	m, err := core.NewModule(cfg)
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	defer m.Shutdown()
	timeline.Attach(m.Bus(), timeline.Options{System: cfg.System})
	m.Bus().Attach(last)
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := m.Run(n); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m.Bus().Flush()
	return first.events, last.events
}

// TestBatchedObsEquivalence proves window-batched sink delivery is
// reader-transparent: a module with BatchObs produces the identical JSONL
// trace and health log as the per-event baseline, and sinks on either side
// of the timeline analyzer receive the same events, its findings included.
func TestBatchedObsEquivalence(t *testing.T) {
	const horizon = 8 * forkMTF
	for name, opts := range equivalenceScenarios() { //air:allow(maprange): subtests; t.Run output is name-keyed
		t.Run(name, func(t *testing.T) {
			baseline := Config(opts)
			trace1, health1, metrics1 := runTraced(t, baseline, horizon)
			before1, after1 := runObserved(t, Config(opts), horizon)

			batched := Config(opts)
			batched.BatchObs = true
			trace2, health2, metrics2 := runTraced(t, batched, horizon)
			observed := Config(opts)
			observed.BatchObs = true
			before2, after2 := runObserved(t, observed, horizon)
			if !reflect.DeepEqual(before1, before2) || !reflect.DeepEqual(after1, after2) {
				t.Errorf("batched sinks received %d and %d events, per-event sinks %d and %d",
					len(before2), len(after2), len(before1), len(after1))
			}

			if !bytes.Equal(trace1, trace2) {
				t.Errorf("batched trace differs from per-event trace (%d vs %d bytes)",
					len(trace1), len(trace2))
			}
			if !bytes.Equal(health1, health2) {
				t.Errorf("batched health log differs from per-event health log")
			}
			if !reflect.DeepEqual(metrics1, metrics2) {
				t.Errorf("batched metrics differ from per-event metrics")
			}
		})
	}
}
