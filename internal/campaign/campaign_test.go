package campaign

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"air/internal/config"
	"air/internal/core"
	"air/internal/workload"
)

// allFaultsMatrix injects every fault class into every run, so coverage
// assertions do not depend on scenario sampling.
func allFaultsMatrix() []Scenario {
	var faults []FaultRange
	for _, k := range workload.FaultKinds() {
		faults = append(faults, FaultRange{Kind: k})
	}
	return []Scenario{{Name: "all-faults", Faults: faults}}
}

// TestCampaignDeterminism: same seed → byte-identical serialized results,
// regardless of worker count.
func TestCampaignDeterminism(t *testing.T) {
	spec := Spec{Runs: 10, Seed: 42, MTFs: 4}
	var artifacts [][]byte
	for _, workers := range []int{1, 1, 4} {
		spec.Workers = workers
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, data)
	}
	if string(artifacts[0]) != string(artifacts[1]) {
		t.Fatal("same seed, same workers: results differ")
	}
	if string(artifacts[0]) != string(artifacts[2]) {
		t.Fatal("same seed, different workers: results differ")
	}
	res, err := Run(Spec{Runs: 10, Seed: 43, MTFs: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(artifacts[0]) == string(data) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestCampaignFaultClassCoverage: every fault class appears in the
// aggregated HM attribution, detection latencies are observed, and no run
// degrades.
func TestCampaignFaultClassCoverage(t *testing.T) {
	res, err := Run(Spec{Runs: 2, Workers: 2, Seed: 7, MTFs: 6, Matrix: allFaultsMatrix()})
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Aggregate
	if agg.Degraded != 0 {
		t.Fatalf("%d degraded runs: %+v", agg.Degraded, res.Observations)
	}
	for _, k := range workload.FaultKinds() {
		if agg.HMByFaultKind[k.String()] == 0 {
			t.Errorf("fault class %s produced no attributed HM events: %v",
				k, agg.HMByFaultKind)
		}
	}
	if agg.DeadlineMisses == 0 {
		t.Error("no deadline misses across campaign")
	}
	if agg.DetectionLatencyMax == 0 {
		t.Error("no nonzero detection latency observed")
	}
	if agg.PartitionRestarts == 0 {
		t.Error("no partition restarts (memory violations should cold restart)")
	}
	if ca := agg.ByFaultKind["deadline-overrun"]; ca == nil || ca.Runs != res.Runs {
		t.Errorf("ByFaultKind bookkeeping wrong: %+v", agg.ByFaultKind)
	}
	if ca := agg.ByScenario["all-faults"]; ca == nil || ca.Runs != res.Runs {
		t.Errorf("ByScenario bookkeeping wrong: %+v", agg.ByScenario)
	}
}

// TestCampaignDefaultMatrixCoverage: the built-in matrix, over enough runs,
// exercises every fault class.
func TestCampaignDefaultMatrixCoverage(t *testing.T) {
	res, err := Run(Spec{Runs: 30, Workers: 4, Seed: 1, MTFs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range workload.FaultKinds() {
		if res.Aggregate.HMByFaultKind[k.String()] == 0 {
			t.Errorf("default matrix over 30 runs: no HM events for %s (%v)",
				k, res.Aggregate.HMByFaultKind)
		}
	}
	if res.Aggregate.Degraded != 0 {
		t.Errorf("%d degraded runs", res.Aggregate.Degraded)
	}
}

// TestCampaignRecoveryEffectiveness: a campaign of transient restart storms
// under the built-in recovery policy reports the full arc in its aggregate —
// quarantines entered and recovered with a finite MTTR, ticks spent in the
// chi2 safe-mode schedule, and the nominal schedule restored — while every
// run's HM activity stays confined to the fault's target partition.
func TestCampaignRecoveryEffectiveness(t *testing.T) {
	pol := config.DefaultRecovery().Policy()
	res, err := Run(Spec{
		Runs: 2, Workers: 2, Seed: 11, MTFs: 80,
		Recovery: &pol,
		Matrix: []Scenario{{Name: "restart-storm", Faults: []FaultRange{{
			Kind: workload.FaultRestartStorm,
		}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Aggregate
	if agg.Degraded != 0 {
		t.Fatalf("%d degraded runs: %+v", agg.Degraded, res.Observations)
	}
	if agg.Quarantines == 0 {
		t.Fatal("no quarantine entered across the campaign")
	}
	if agg.Recoveries == 0 {
		t.Fatal("no quarantine recovered (no finite MTTR)")
	}
	if agg.MTTRMean <= 0 || agg.MTTRMax <= 0 {
		t.Errorf("MTTR mean %.1f / max %d, want finite positive", agg.MTTRMean, agg.MTTRMax)
	}
	if agg.TicksDegraded == 0 {
		t.Error("no ticks spent in the safe-mode schedule")
	}
	if agg.ScheduleRestores == 0 {
		t.Error("nominal schedule never restored")
	}
	if agg.RestartsDeferred == 0 {
		t.Error("restart budget never deferred a restart")
	}
	if agg.ContainedRuns != agg.Runs {
		t.Errorf("contained %d/%d runs, want all", agg.ContainedRuns, agg.Runs)
	}
	// The columns survive serialization for downstream reports.
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"mttrSum", "ticksDegraded", "scheduleRestores", "contained"} {
		if !containsStr(string(data), field) {
			t.Errorf("serialized result lacks %q", field)
		}
	}

	// The identical campaign without the policy recovers nothing — the
	// columns measure the policy, not the fault.
	unmanaged, err := Run(Spec{
		Runs: 2, Workers: 2, Seed: 11, MTFs: 80,
		Matrix: []Scenario{{Name: "restart-storm", Faults: []FaultRange{{
			Kind: workload.FaultRestartStorm,
		}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if u := unmanaged.Aggregate; u.Quarantines != 0 || u.Recoveries != 0 || u.RestartsDeferred != 0 {
		t.Errorf("policy-free campaign reports recovery activity: %+v", u)
	}
}

// TestCampaignWatchdog: an unmeetable wall-clock budget degrades every run
// but the campaign itself completes and reports.
func TestCampaignWatchdog(t *testing.T) {
	res, err := Run(Spec{Runs: 4, Workers: 2, Seed: 3, MTFs: 50, Watchdog: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Degraded != res.Runs {
		t.Fatalf("expected all %d runs degraded, got %d", res.Runs, res.Aggregate.Degraded)
	}
	for _, o := range res.Observations {
		if o.Error == "" {
			t.Fatalf("degraded run %d has no error", o.Run)
		}
	}
}

// TestCampaignFakeClock: Spec.Clock is the engine's only wall-clock tap, so
// injecting a fake makes the watchdog fire deterministically — every
// reading advances a full second against a half-second budget, degrading
// each run on its first MTF check — while timing stays internally
// consistent.
func TestCampaignFakeClock(t *testing.T) {
	var now atomic.Int64
	spec := Spec{
		Runs: 3, Workers: 2, Seed: 7, MTFs: 10,
		Watchdog: 500 * time.Millisecond,
		Clock:    func() time.Time { return time.Unix(0, now.Add(int64(time.Second))) },
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Degraded != res.Runs {
		t.Fatalf("expected all %d runs watchdog-degraded, got %d", res.Runs, res.Aggregate.Degraded)
	}
	for _, o := range res.Observations {
		if !strings.HasPrefix(o.Error, "watchdog:") {
			t.Errorf("run %d: error %q, want watchdog", o.Run, o.Error)
		}
		if o.WallNanos <= 0 {
			t.Errorf("run %d: WallNanos = %d, want > 0 from the fake clock", o.Run, o.WallNanos)
		}
	}
	if res.Timing == nil || res.Timing.Elapsed <= 0 {
		t.Fatalf("Timing = %+v, want positive fake-clock elapsed", res.Timing)
	}
}

// TestCampaignSpecValidate rejects broken matrices.
func TestCampaignSpecValidate(t *testing.T) {
	bad := []Spec{
		{Matrix: []Scenario{{Name: ""}}},
		{Matrix: []Scenario{{Name: "a"}, {Name: "a"}}},
		{Matrix: []Scenario{{Name: "a", Faults: []FaultRange{{Kind: workload.FaultKind(99)}}}}},
		{Matrix: []Scenario{{Name: "a", Faults: []FaultRange{
			{Kind: workload.FaultIPCFlood, Partition: "P9"}}}}},
		{Matrix: []Scenario{{Name: "a", Faults: []FaultRange{
			{Kind: workload.FaultIPCFlood, Period: Range{Min: -1}}}}}},
		{Runs: MaxRuns + 1},
	}
	for i, spec := range bad {
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
	if err := (Spec{}).withDefaults().Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}

// TestScenarioWeights: weighted selection is deterministic in the seed and
// covers all scenarios over enough runs.
func TestScenarioWeights(t *testing.T) {
	matrix := []Scenario{
		{Name: "a", Weight: 1},
		{Name: "b", Weight: 9},
		{Name: "zero-weight"}, // counts as 1
	}
	counts := map[string]int{}
	for run := 0; run < 200; run++ {
		sc := pickScenario(matrix, newRunRNG(5, run))
		counts[sc.Name]++
	}
	for name, n := range counts {
		if n == 0 {
			t.Errorf("scenario %s never selected", name)
		}
		_ = name
	}
	if counts["b"] <= counts["a"] {
		t.Errorf("weight 9 selected %d times, weight 1 %d times", counts["b"], counts["a"])
	}
}

// waitForGoroutines polls until the goroutine count drops to the baseline
// (goroutine exit is asynchronous after Shutdown returns).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRepeatedRunsNoGoroutineLeak: 100 NewModule → Run → Shutdown cycles
// leave the goroutine count at baseline — the prerequisite for long
// campaigns (satellite regression for the worker pool's reaping).
func TestRepeatedRunsNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	faults := []workload.FaultSpec{
		{Kind: workload.FaultDeadlineOverrun},
		{Kind: workload.FaultIPCFlood},
	}
	for i := 0; i < 100; i++ {
		m, err := core.NewModule(workload.Config(workload.Options{Faults: faults}))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(1300); err != nil {
			t.Fatal(err)
		}
		m.Shutdown()
	}
	waitForGoroutines(t, baseline)
}

// TestCampaignNoGoroutineLeak: a full campaign leaves no goroutines behind,
// including degraded (watchdog-tripped) runs.
func TestCampaignNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	if _, err := Run(Spec{Runs: 20, Workers: 4, Seed: 9, MTFs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Spec{Runs: 5, Workers: 2, Seed: 9, MTFs: 50, Watchdog: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, baseline)
}

// TestTimingPresent: throughput stats exist but never serialize.
func TestTimingPresent(t *testing.T) {
	res, err := Run(Spec{Runs: 2, Workers: 1, Seed: 11, MTFs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil || res.Timing.Workers != 1 || res.Timing.Ticks == 0 {
		t.Fatalf("timing not collected: %+v", res.Timing)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"Elapsed", "TicksPerSecond", "WallNanos", "wallNanos"} {
		if containsStr(string(data), forbidden) {
			t.Fatalf("nondeterministic field %q leaked into serialized result", forbidden)
		}
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
