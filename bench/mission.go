package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"air/internal/core"
	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/timeline"
	"air/internal/workload"
)

// mtfTicks is the Fig. 8 major time frame.
var mtfTicks = model.Fig8System().Schedules[0].MTF

// sect6Fault is the paper's Sect. 6 faulty process on P1: it never
// completes, so its deadline is detected missed once per MTF.
var sect6Fault = workload.FaultSpec{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220}

// runMission is airsim's path: one module with the Sect. 6 fault and the
// timeline analyzer attached, ticked one MTF per op. It has no per-run
// build, fork, archive or fleet, so a change to the kernel tick or the
// process handoff shows here first.
func runMission(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var m *core.Module
	var tl *timeline.Timeline
	for i := 0; i < cfg.size.setups; i++ {
		if m != nil {
			m.Shutdown()
		}
		sp := tr.start("mission.setup", nil)
		var err error
		m, tl, err = buildModule(workload.Options{Faults: []workload.FaultSpec{sect6Fault}}, false, tr, &sp)
		o.setup = append(o.setup, tr.end(sp))
		if err != nil {
			return nil, err
		}
	}
	defer m.Shutdown()

	var ticks []int64
	misses := m.Health().Reported(hm.ErrDeadlineMissed)
	deadline := time.Now().Add(cfg.budget)
	for n := 1; n <= cfg.size.missionCheckpoint || time.Now().Before(deadline); n++ {
		op := tr.start("mission.mtf", nil)
		err := advance(m, mtfTicks, tr, &op)
		d := tr.endOp(op)
		if err != nil {
			return nil, err
		}
		tr.sampleMs("core.run_mtf_ms", d)
		o.ops = append(o.ops, d)
		ticks = append(ticks, int64(mtfTicks))
		o.attempted++
		now := m.Health().Reported(hm.ErrDeadlineMissed)
		o.check(now == misses+1, 1, "MTF %d: %d deadline misses detected, want 1 (Sect. 6)", n, now-misses)
		misses = now
		if n == cfg.size.missionCheckpoint {
			o.digest = digestJSON(m.Metrics())
		}
	}
	o.tput = slicedThroughput(ticks, o.ops, 30)

	snap := m.Metrics()
	tr.sample("obs.events", float64(snap.Events))
	tr.sample("obs.ticks", float64(m.Now()))
	sp := tr.start("timeline.snapshot", nil)
	tl.Snapshot()
	tr.sample("timeline.snapshot_us", float64(tr.end(sp).Nanoseconds())/1e3)
	sp = tr.start("core.shutdown", nil)
	m.Shutdown()
	tr.sampleMs("core.shutdown_ms", tr.end(sp))
	return o, nil
}

// buildModule builds and starts a satellite module with the timeline
// analyzer attached the way the campaign engine and the CLIs attach it
// (timeline.New + Bind + Bus.Attach, here through the tracer's timing
// wrapper), then any further sinks. batch selects the campaign engine's
// batched spine delivery and its ring-less trace.
func buildModule(opts workload.Options, batch bool, tr *tracer, parent *spanRef, sinks ...obs.Sink) (*core.Module, *timeline.Timeline, error) {
	if batch {
		opts.TraceCapacity = -1
	}
	cfg := workload.Config(opts)
	cfg.BatchObs = batch
	sp := tr.start("core.new_module", parent)
	a0 := tr.allocs()
	m, err := core.NewModule(cfg)
	tr.sample("core.new_module_alloc_mb", float64(tr.allocs()-a0)/(1<<20))
	tr.sampleMs("core.new_module_ms", tr.end(sp))
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start("timeline.attach", parent)
	tl := attachTimeline(m.Bus(), tr)
	tr.end(sp)
	for _, s := range sinks {
		m.Bus().Attach(s)
	}
	sp = tr.start("core.start", parent)
	err = m.Start()
	tr.sampleMs("core.start_ms", tr.end(sp))
	if err != nil {
		m.Shutdown()
		return nil, nil, err
	}
	return m, tl, nil
}

func attachTimeline(bus *obs.Bus, tr *tracer) *timeline.Timeline {
	tl := timeline.New(timeline.Options{System: model.Fig8System()})
	tl.Bind(bus)
	bus.Attach(tr.wrap("timeline", tl))
	return tl
}

func digestJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return digest(data)
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
