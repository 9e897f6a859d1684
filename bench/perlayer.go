package main

import (
	"math"
	"runtime"
	"time"
)

// perLayer derives the per-layer metrics of a traced run. base is the
// untraced half of the run, traced the traced half; m0 and m1 bracket the
// traced half. A layer the workload does not exercise reports 0.
func perLayer(tr *tracer, base, traced *outcome, m0, m1 runtime.MemStats, elapsed time.Duration) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, unit}
	}
	p := func(name string, q float64) float64 { return percentile(tr.get(name), q) }
	med := func(name string) float64 { return p(name, 50) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("core.step_ns_p50", "ns", percentile(tr.stepSample, 50))
	put("core.step_ns_p99", "ns", percentile(tr.stepSample, 99))
	put("core.step_self_ns", "ns", ratio(float64(tr.stepSelfNs), float64(tr.stepCount)))
	put("core.host_ns_per_event", "ns", ratio(float64(tr.stepNs), float64(tr.stepEvents)))
	put("core.new_module_ms", "ms", med("core.new_module_ms"))
	put("core.new_module_alloc_mb", "MB", med("core.new_module_alloc_mb"))
	put("core.start_ms", "ms", med("core.start_ms"))
	put("core.snapshot_ms", "ms", med("core.snapshot_ms"))
	put("core.fork_ms_p50", "ms", p("core.fork_ms", 50))
	put("core.fork_ms_p99", "ms", p("core.fork_ms", 99))
	put("core.fork_alloc_mb", "MB", med("core.fork_alloc_mb"))
	put("core.run_mtf_ms_p50", "ms", p("core.run_mtf_ms", 50))
	put("core.run_mtf_ms_p99", "ms", p("core.run_mtf_ms", 99))
	put("core.shutdown_ms", "ms", med("core.shutdown_ms"))

	put("workload.inject_ms", "ms", med("workload.inject_ms"))
	put("obs.events_per_tick", "events/tick", ratio(tr.sum("obs.events"), tr.sum("obs.ticks")))
	put("timeline.emit_ns", "ns", tr.sinkMeanNs("timeline"))
	put("timeline.snapshot_us", "us", med("timeline.snapshot_us"))

	put("archive.emit_ns", "ns", tr.sinkMeanNs("archive"))
	put("archive.close_ms", "ms", med("archive.close_ms"))
	put("archive.records_per_mtf", "records/MTF", tr.mean("archive.records_per_mtf"))
	put("archive.bytes_per_record", "B", tr.mean("archive.bytes_per_record"))
	put("archive.segments", "count", tr.mean("archive.segments"))
	put("archive.open_reader_ms", "ms", med("archive.open_reader_ms"))
	put("archive.asof_records_folded", "count", tr.mean("archive.asof_records"))
	put("archive.asof_us_per_krecord", "us", ratio(tr.sum("archive.asof_ms")*1e3, tr.sum("archive.asof_records")/1e3))
	put("archive.asof_ms_p50", "ms", p("archive.asof_ms", 50))
	put("archive.asof_ms_p95", "ms", p("archive.asof_ms", 95))
	put("archive.scan_ms_p50", "ms", p("archive.scan_ms", 50))
	put("archive.scan_ms_p99", "ms", p("archive.scan_ms", 99))
	put("archive.diff_s", "s", med("archive.diff_s"))
	put("archive.diff_records_walked", "count", tr.mean("archive.diff_records"))

	put("campaign.prefix_ms", "ms", med("campaign.prefix_ms"))
	put("campaign.collect_ms", "ms", med("campaign.collect_ms"))
	put("campaign.fold_us", "us", med("campaign.fold_us"))
	put("campaign.result_json_ms", "ms", med("campaign.result_json_ms"))
	put("campaign.run_ms_p99", "ms", p("campaign.run_ms", 99))
	put("campaign.shard_ms_p50", "ms", p("campaign.shard_ms", 50))

	put("fleet.lease_ms_p99", "ms", p("fleet.lease_ms", 99))
	put("fleet.acquire_ms_p50", "ms", p("fleet.acquire_ms", 50))
	put("fleet.acquire_ms_p99", "ms", p("fleet.acquire_ms", 99))
	put("fleet.complete_ms_p50", "ms", p("fleet.complete_ms", 50))
	put("fleet.complete_ms_p99", "ms", p("fleet.complete_ms", 99))
	put("fleet.server_acquire_ms_p50", "ms", p("fleet.server_acquire_ms", 50))
	put("fleet.server_complete_ms_p50", "ms", p("fleet.server_complete_ms", 50))
	put("fleet.complete_req_kb", "KB", med("fleet.complete_req_kb"))
	put("fleet.acquire_granted_ratio", "ratio", ratio(tr.sum("fleet.granted"), tr.sum("fleet.acquires")))
	put("fleet.retries", "count", tr.sum("fleet.retries"))

	put("runtime.alloc_mb_per_s", "MB/s", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/elapsed.Seconds())
	put("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	put("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	put("trace.overhead", "ratio", 1-ratio(median(traced.tput), median(base.tput)))
	put("trace.coverage", "ratio", median(tr.coverage))
	return out
}
