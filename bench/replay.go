package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"air/internal/campaign"
	"air/internal/core"
	"air/internal/hm"
	"air/internal/model"
	"air/internal/tick"
	"air/internal/timeline"
	"air/internal/workload"
)

// Campaign and fleet runs execute inside the campaign engine's private
// runOne, where no span can reach. A traced run therefore replays a seeded
// sample of them through the public calls, phase by phase, and requires
// each replay to reproduce the engine's observation exactly.

// replaySample replays cfg.size.replays runs drawn from observations. fork
// selects the prefix-sharing path (campaign-fork) over the from-zero path
// (fleet-http).
func replaySample(spec campaign.Spec, observations []campaign.Observation, fork bool, cfg config, tr *tracer, o *outcome) error {
	spec = spec.Defaulted()
	var snap *core.Snapshot
	if fork {
		parent, s, err := buildPrefix(spec, tr)
		if err != nil {
			return err
		}
		defer parent.Shutdown()
		snap = s
	}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	picks := rng.Perm(len(observations))[:min(cfg.size.replays, len(observations))]
	sort.Ints(picks)
	for _, i := range picks {
		o.attempted++
		err := replay(spec, snap, observations[i], tr)
		o.check(err == nil, 1, "replay of run %d: %v", observations[i].Run, err)
	}
	return nil
}

// buildPrefix is the public-call form of the engine's shared fault-free
// prefix: PrefixMTFs MTFs ticked once, without a timeline (the engine
// attaches one to each fork, not to the prefix), then snapshotted at the
// first quiescent tick from the end of the last prefix MTF on.
func buildPrefix(spec campaign.Spec, tr *tracer) (*core.Module, *core.Snapshot, error) {
	op := tr.start("campaign.prefix", nil)
	defer func() { tr.sampleMs("campaign.prefix_ms", tr.end(op)) }()
	cfg := workload.Config(workload.Options{Recovery: spec.Recovery, TraceCapacity: spec.TraceCapacity})
	cfg.BatchObs = true
	m, err := core.NewModule(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Start(); err != nil {
		m.Shutdown()
		return nil, nil, err
	}
	if err := advance(m, tick.Ticks(spec.PrefixMTFs)*mtfTicks-1, tr, nil); err != nil {
		m.Shutdown()
		return nil, nil, err
	}
	for tries := tick.Ticks(0); ; tries++ {
		sp := tr.start("core.snapshot", &op)
		snap, err := m.Snapshot()
		tr.sampleMs("core.snapshot_ms", tr.end(sp))
		if err == nil {
			return m, snap, nil
		}
		if tries >= mtfTicks {
			m.Shutdown()
			return nil, nil, fmt.Errorf("prefix never quiescent: %w", err)
		}
		if err := m.Step(); err != nil {
			m.Shutdown()
			return nil, nil, err
		}
	}
}

// replay re-executes one run: fork (or build and start), attach the
// timeline, inject the observation's faults, tick in MTF chunks, collect
// and shut down — each phase a child span of the replay op. snap is nil
// for a from-zero run.
func replay(spec campaign.Spec, snap *core.Snapshot, want campaign.Observation, tr *tracer) error {
	faults, err := faultSpecs(want.Faults)
	if err != nil {
		return err
	}
	op := tr.start("replay.run", nil)
	var m *core.Module
	var tl *timeline.Timeline
	if snap != nil {
		sp := tr.start("core.fork", &op)
		a0 := tr.allocs()
		m, err = snap.Fork()
		tr.sample("core.fork_alloc_mb", float64(tr.allocs()-a0)/(1<<20))
		tr.sampleMs("core.fork_ms", tr.end(sp))
		if err != nil {
			return err
		}
		sp = tr.start("timeline.attach", &op)
		tl = attachTimeline(m.Bus(), tr)
		tr.end(sp)
		sp = tr.start("workload.inject", &op)
		err = workload.InjectFaults(m, workload.Options{Faults: faults})
		tr.sampleMs("workload.inject_ms", tr.end(sp))
	} else {
		m, tl, err = buildModule(workload.Options{Faults: faults, Recovery: spec.Recovery}, true, tr, &op)
		if err != nil {
			return err
		}
	}
	remaining := tick.Ticks(spec.MTFs)*mtfTicks - m.Now()
	for err == nil && remaining > 0 && !m.Halted() {
		chunk := min(mtfTicks, remaining)
		sp := tr.start("core.run_mtf", &op)
		err = advance(m, chunk, tr, nil)
		tr.sampleMs("core.run_mtf_ms", tr.end(sp))
		remaining -= chunk
	}
	sp := tr.start("campaign.collect", &op)
	got := campaign.Observation{
		Ticks:          int64(m.Now()),
		DeadlineMisses: int(m.Health().Reported(hm.ErrDeadlineMissed)),
		Metrics:        m.Metrics(),
	}
	ts := tr.start("timeline.snapshot", &sp)
	got.Timeline = tl.Snapshot()
	tr.sample("timeline.snapshot_us", float64(tr.end(ts).Nanoseconds())/1e3)
	tr.sampleMs("campaign.collect_ms", tr.end(sp))
	sp = tr.start("core.shutdown", &op)
	m.Shutdown()
	tr.sampleMs("core.shutdown_ms", tr.end(sp))
	tr.endOp(op)
	if err != nil {
		return err
	}
	return sameObservation(got, want)
}

// sameObservation compares what a replay reproduces: ticks, detected
// deadline misses, the spine metrics and the timeline snapshot.
func sameObservation(got, want campaign.Observation) error {
	if got.Ticks != want.Ticks || got.DeadlineMisses != want.DeadlineMisses {
		return fmt.Errorf("ticks/misses %d/%d, engine %d/%d", got.Ticks, got.DeadlineMisses, want.Ticks, want.DeadlineMisses)
	}
	for _, part := range []struct {
		name      string
		got, want any
	}{{"metrics", got.Metrics, want.Metrics}, {"timeline", got.Timeline, want.Timeline}} {
		a, err := json.Marshal(part.got)
		if err != nil {
			return err
		}
		b, err := json.Marshal(part.want)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s differ from the engine's", part.name)
		}
	}
	return nil
}

func faultSpecs(draws []campaign.FaultDraw) ([]workload.FaultSpec, error) {
	out := make([]workload.FaultSpec, len(draws))
	for i, d := range draws {
		kind, err := workload.ParseFaultKind(d.Kind)
		if err != nil {
			return nil, err
		}
		out[i] = workload.FaultSpec{Kind: kind, Partition: model.PartitionName(d.Partition),
			Deadline: tick.Ticks(d.Deadline), Magnitude: tick.Ticks(d.Magnitude),
			Period: tick.Ticks(d.Period), Phase: tick.Ticks(d.Phase)}
	}
	return out, nil
}
