package campaign

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"air/internal/config"
	"air/internal/workload"
)

// aggJSON serializes an aggregate for byte-level comparison.
func aggJSON(t *testing.T, a Aggregate) []byte {
	t.Helper()
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recoverySpec is a campaign under the built-in recovery policy whose
// aggregate has every recovery counter non-zero: baseline, restart-storm
// and partition-hang scenarios at their default parameters, 6 runs of 80
// MTFs.
func recoverySpec() Spec {
	pol := config.DefaultRecovery().Policy()
	return Spec{Runs: 6, Seed: 11, MTFs: 80, Workers: 2, Recovery: &pol, Matrix: []Scenario{
		{Name: "baseline"},
		{Name: "restart-storm", Faults: []FaultRange{{Kind: workload.FaultRestartStorm}}},
		{Name: "partition-hang", Faults: []FaultRange{{Kind: workload.FaultPartitionHang}}},
	}}
}

// aggregateCounters gathers the aggregate's counter columns. The aggregate
// carries the MTTR mean where a run or a class carries the sum, so the sum
// is recovered from it.
func aggregateCounters(a *Aggregate) Counters {
	return Counters{
		PartitionRestarts: a.PartitionRestarts,
		ProcessRestarts:   a.ProcessRestarts,
		ScheduleSwitches:  a.ScheduleSwitches,
		RestartsDeferred:  a.RestartsDeferred,
		Quarantines:       a.Quarantines,
		Recoveries:        a.Recoveries,
		MTTRSum:           int64(a.MTTRMean*float64(a.Recoveries) + 0.5),
		MTTRMax:           a.MTTRMax,
		TicksDegraded:     a.TicksDegraded,
		ScheduleRestores:  a.ScheduleRestores,
	}
}

// checkCounters asserts that every level of a fold — each observation, each
// scenario and fault-kind class, the aggregate — holds the counters read
// off that level's own metrics snapshot.
func checkCounters(t *testing.T, observations []Observation, a *Aggregate) {
	t.Helper()
	for i := range observations {
		o := &observations[i]
		if want := countersOf(&o.Metrics); o.Counters != want {
			t.Errorf("run %d counters %+v, its metrics read %+v", o.Run, o.Counters, want)
		}
	}
	for _, classes := range []map[string]*ClassAgg{a.ByScenario, a.ByFaultKind} {
		for name, c := range classes {
			if want := countersOf(&c.Metrics); c.Counters != want {
				t.Errorf("class %s counters %+v, its metrics read %+v", name, c.Counters, want)
			}
		}
	}
	if got, want := aggregateCounters(a), countersOf(&a.Metrics); got != want {
		t.Errorf("aggregate counters %+v, its metrics read %+v", got, want)
	}
}

// TestFoldMergePartitioning is the fold/merge correctness property behind
// fleet sharding: for ANY contiguous partitioning of the run space into
// shards, folding each shard's observations in run order and merging the
// shard aggregates in shard order produces an aggregate byte-identical to
// the batch fold over all observations. Shard boundaries are drawn at
// random (seeded), covering single-run shards, one whole-campaign shard and
// everything between. The recovery campaign carries non-zero restart and
// recovery counters through every partitioning.
func TestFoldMergePartitioning(t *testing.T) {
	for _, spec := range []Spec{{Runs: 24, Seed: 99, MTFs: 3, Workers: 4}, recoverySpec()} {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		obs := res.Observations
		want := aggJSON(t, res.Aggregate)
		checkCounters(t, obs, &res.Aggregate)
		if spec.Recovery != nil {
			c := aggregateCounters(&res.Aggregate)
			if c.PartitionRestarts == 0 || c.RestartsDeferred == 0 || c.Quarantines == 0 || c.Recoveries == 0 ||
				c.MTTRMax == 0 || c.TicksDegraded == 0 || c.ScheduleRestores == 0 {
				t.Fatalf("recovery campaign leaves a recovery counter at zero: %+v", c)
			}
		}

		foldRange := func(start, end int) Aggregate {
			sh := NewAggregate()
			for i := start; i < end; i++ {
				sh.Fold(obs[i])
			}
			return sh
		}

		partitions := [][]int{
			{len(obs)},        // one shard = whole campaign
			{1, len(obs) - 1}, // lopsided split
		}
		ones := make([]int, len(obs)) // every shard a single run
		for i := range ones {
			ones[i] = 1
		}
		partitions = append(partitions, ones)
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 16; trial++ {
			var sizes []int
			remaining := len(obs)
			for remaining > 0 {
				n := 1 + rng.Intn(remaining)
				sizes = append(sizes, n)
				remaining -= n
			}
			partitions = append(partitions, sizes)
		}

		for pi, sizes := range partitions {
			merged := NewAggregate()
			start := 0
			for _, n := range sizes {
				sh := foldRange(start, start+n)
				merged.Merge(sh)
				start += n
			}
			if start != len(obs) {
				t.Fatalf("partition %d does not cover the run space", pi)
			}
			if got := aggJSON(t, merged); !bytes.Equal(got, want) {
				t.Fatalf("seed %d partition %d (%d shards, sizes %v): merged aggregate differs from batch fold\nbatch: %s\nmerged: %s",
					spec.Seed, pi, len(sizes), sizes, want, got)
			}
		}
	}
}

// TestFoldCountersFollowMetrics pins where a class's and the campaign's
// counters come from: the merged metrics snapshot, not the sum of the runs'
// own counter fields. A decoded run whose quarantine count disagrees with
// its snapshot keeps its own, and the levels above it follow the snapshot.
func TestFoldCountersFollowMetrics(t *testing.T) {
	res, err := Run(Spec{Runs: 4, Seed: 3, MTFs: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Observations[0]
	if n := o.Metrics.Counts["QUARANTINE_ENTER"]; n != 0 || len(o.Faults) == 0 {
		t.Fatalf("run 0 quarantined %d times under %d faults; want a faulted run without quarantines", n, len(o.Faults))
	}
	o.Quarantines = 7
	b, err := encodeObservation(&o)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeObservation(b)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Quarantines != 7 {
		t.Fatalf("decoded run quarantines %d, want its own 7", decoded.Quarantines)
	}
	agg := Fold([]Observation{decoded})
	if agg.Quarantines != 0 {
		t.Errorf("campaign quarantines %d, its metrics count none", agg.Quarantines)
	}
	classes := map[string]*ClassAgg{"scenario " + o.Scenario: agg.ByScenario[o.Scenario]}
	for _, f := range o.Faults {
		classes["fault kind "+f.Kind] = agg.ByFaultKind[f.Kind]
	}
	for name, c := range classes {
		if c.Quarantines != 0 {
			t.Errorf("%s quarantines %d, its metrics count none", name, c.Quarantines)
		}
	}
}

// TestFoldMergeSurvivesJSONRoundTrip mirrors what the fleet transport does:
// shard aggregates are marshaled by the worker, unmarshaled by the
// coordinator and merged there. The round trip must not perturb the merge.
func TestFoldMergeSurvivesJSONRoundTrip(t *testing.T) {
	spec := Spec{Runs: 10, Seed: 3, MTFs: 2, Workers: 2}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := aggJSON(t, res.Aggregate)

	merged := NewAggregate()
	for start := 0; start < len(res.Observations); start += 5 {
		sh := NewAggregate()
		for i := start; i < start+5; i++ {
			sh.Fold(res.Observations[i])
		}
		wire, err := json.Marshal(sh)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Aggregate
		if err := json.Unmarshal(wire, &decoded); err != nil {
			t.Fatal(err)
		}
		merged.Merge(decoded)
	}
	if got := aggJSON(t, merged); !bytes.Equal(got, want) {
		t.Fatalf("merge of JSON round-tripped shards differs from batch fold\nbatch: %s\nmerged: %s", want, got)
	}
}

// TestRunShardMatchesRun asserts that executing the campaign as shards
// reproduces the exact observations and aggregate of a whole-campaign Run.
func TestRunShardMatchesRun(t *testing.T) {
	spec := Spec{Runs: 12, Seed: 42, MTFs: 2, Workers: 3}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewAggregate()
	var all []Observation
	for _, r := range [][2]int{{0, 5}, {5, 6}, {6, 12}} {
		sh, err := RunShard(spec, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if sh.Start != r[0] || sh.End != r[1] || len(sh.Observations) != r[1]-r[0] {
			t.Fatalf("shard bounds %+v mismatch request %v", sh, r)
		}
		if sh.Aggregate != nil {
			t.Fatalf("shard %v folded its observations; their consumer folds them", r)
		}
		merged.Merge(Fold(sh.Observations))
		all = append(all, sh.Observations...)
	}
	wantObs, _ := json.Marshal(res.Observations)
	gotObs, _ := json.Marshal(all)
	if !bytes.Equal(wantObs, gotObs) {
		t.Fatal("sharded observations differ from whole-campaign run")
	}
	if got, want := aggJSON(t, merged), aggJSON(t, res.Aggregate); !bytes.Equal(got, want) {
		t.Fatalf("sharded aggregate differs from whole-campaign run\nwant: %s\ngot: %s", want, got)
	}
}

// TestRunShardBounds rejects ranges outside the campaign's run space.
func TestRunShardBounds(t *testing.T) {
	spec := Spec{Runs: 4, Seed: 1, MTFs: 1}
	for _, r := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		if _, err := RunShard(spec, r[0], r[1]); err == nil {
			t.Errorf("RunShard(%d, %d) accepted an out-of-range shard", r[0], r[1])
		}
	}
}
