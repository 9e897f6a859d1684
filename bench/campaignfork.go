package main

import (
	"bytes"
	"encoding/json"
	"time"

	"air/internal/campaign"
)

// forkSpec is the campaign-fork unit: the default fault matrix with the
// fault-free prefix ticked once and forked per run.
func forkSpec(cfg config, seed uint64, runs int) campaign.Spec {
	sz := cfg.size
	return campaign.Spec{Runs: runs, Workers: sz.forkWorkers, Seed: seed, MTFs: sz.forkMTFs,
		ForkPrefix: true, PrefixMTFs: sz.forkPrefixMTFs}
}

// runCampaignFork runs whole campaigns with seeds seed, seed+1, … until the
// budget is spent. Snapshot.Fork, fault injection, suffix ticking and the
// per-run collect and fold dominate; NewModule is paid once per campaign.
// An op is one run, timed by the engine's Observation.WallNanos.
func runCampaignFork(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{}
	// Set-up is a warm-up campaign at the same settings: it fills caches
	// and grows the heap before anything is timed.
	for i := 0; i < cfg.size.setups; i++ {
		sp := tr.start("campaign.warmup", nil)
		_, err := campaign.Run(forkSpec(cfg, cfg.seed, cfg.size.forkWarmupRuns))
		o.setup = append(o.setup, tr.end(sp))
		if err != nil {
			return nil, err
		}
	}

	var first *campaign.Result
	var firstJSON []byte
	deadline := time.Now().Add(cfg.budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		spec := forkSpec(cfg, cfg.seed+uint64(i), cfg.size.forkRuns)
		op := tr.start("campaign.run", nil)
		if tr != nil {
			spec.OnObservation = func(ob campaign.Observation) {
				end := time.Now()
				tr.record("campaign.run_one", &op, end.Add(-time.Duration(ob.WallNanos)), end)
			}
		}
		res, err := campaign.Run(spec)
		d := tr.end(op)
		if err != nil {
			return nil, err
		}
		o.tput = append(o.tput, float64(res.Aggregate.Ticks)/d.Seconds())
		for _, ob := range res.Observations {
			o.ops = append(o.ops, time.Duration(ob.WallNanos))
			tr.sample("campaign.run_ms", float64(ob.WallNanos)/1e6)
			o.attempted++
			o.check(!ob.Degraded, 1, "campaign %d run %d degraded: %s", spec.Seed, ob.Run, ob.Error)
		}
		data, err := checkResult(res, tr, o)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first, firstJSON = res, data
		}
	}

	// The first campaign's digest must repeat: run it again, untimed.
	again, err := campaign.Run(forkSpec(cfg, cfg.seed, cfg.size.forkRuns))
	if err != nil {
		return nil, err
	}
	data, err := again.JSON()
	if err != nil {
		return nil, err
	}
	o.digest = digest(firstJSON)
	o.check(bytes.Equal(firstJSON, data), first.Runs, "campaign %d: re-run digest %s, first %s", first.Seed, digest(data), o.digest)
	if tr != nil {
		return o, replaySample(forkSpec(cfg, cfg.seed, cfg.size.forkRuns), first.Observations, true, cfg, tr, o)
	}
	return o, nil
}

// checkResult verifies a campaign result outside any timed interval: the
// observations fold (Aggregate.Fold, in run order) into exactly the
// engine's aggregate. It returns Result.JSON; traced, it times the fold and
// the serialization.
func checkResult(res *campaign.Result, tr *tracer, o *outcome) ([]byte, error) {
	agg := campaign.NewAggregate()
	for _, ob := range res.Observations {
		sp := tr.start("campaign.fold", nil)
		agg.Fold(ob)
		tr.sample("campaign.fold_us", float64(tr.end(sp).Nanoseconds())/1e3)
	}
	a, err := json.Marshal(agg)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res.Aggregate)
	if err != nil {
		return nil, err
	}
	o.check(bytes.Equal(a, b), res.Runs, "campaign %d: folded observations differ from the engine's aggregate", res.Seed)
	tr.sample("obs.events", float64(res.Aggregate.Metrics.Events))
	tr.sample("obs.ticks", float64(res.Aggregate.Ticks))
	sp := tr.start("campaign.result_json", nil)
	data, err := res.JSON()
	tr.sampleMs("campaign.result_json_ms", tr.end(sp))
	return data, err
}
