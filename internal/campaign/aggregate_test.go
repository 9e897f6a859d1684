package campaign

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
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

// TestFoldMergePartitioning is the fold/merge correctness property behind
// fleet sharding: for ANY contiguous partitioning of the run space into
// shards, folding each shard's observations in run order and merging the
// shard aggregates in shard order produces an aggregate byte-identical to
// the batch fold over all observations. Shard boundaries are drawn at
// random (seeded), covering single-run shards, one whole-campaign shard and
// everything between.
func TestFoldMergePartitioning(t *testing.T) {
	spec := Spec{Runs: 24, Seed: 99, MTFs: 3, Workers: 4}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	obs := res.Observations
	want := aggJSON(t, res.Aggregate)

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
			t.Fatalf("partition %d (%d shards, sizes %v): merged aggregate differs from batch fold\nbatch: %s\nmerged: %s",
				pi, len(sizes), sizes, want, got)
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
