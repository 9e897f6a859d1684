// Command airsim runs the paper's Sect. 6 prototype demonstration: four
// partitions executing mockup satellite functions (AOCS, OBDH, TTC, FDIR)
// over the Fig. 8 scheduling tables, visualised through the VITRAL-style
// text window manager (Fig. 9) — one window per partition plus two windows
// observing the behaviour of AIR components (the PMK schedule/dispatch
// trace and the Health Monitor log).
//
// Usage:
//
//	airsim [-mtfs n] [-fault] [-faults list] [-recovery] [-switch-at mtf]
//	       [-frames n] [-telemetry addr] [-archive dir] [-obs-out file]
//
// -fault injects the faulty process on P1 (deadline violation every P1
// dispatch except the first). -faults injects a comma-separated list of
// fault classes (e.g. "restart-storm,partition-hang") with per-kind
// defaults. -recovery enables the built-in recovery-orchestration policy
// (restart budgets, quarantine, chi2 safe-mode degradation). -switch-at
// requests the chi2 schedule at the given MTF boundary, exercising
// mode-based schedules. -telemetry serves /metrics (Prometheus text),
// /timeline.json (cmd/airmon's feed), /flight (post-mortem JSON) and
// /debug/pprof (Go runtime profiles) on the given address while the
// simulation runs. -archive appends every spine event to a bitemporal
// flight archive (internal/archive) for time-travel queries and run
// diffing — with -telemetry the /archive/asof, /archive/range and
// /archive/diff endpoints serve it live. -obs-out writes the raw spine
// stream as JSON lines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"air/internal/archive"
	"air/internal/config"
	"air/internal/core"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/recovery"
	"air/internal/timeline"
	"air/internal/vitral"
	"air/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airsim:", err)
		os.Exit(1)
	}
}

// serveHook, when set (tests), is called with the telemetry server's address
// while it is live — the seam the -telemetry smoke test probes through,
// since the server shuts down when run returns.
var serveHook func(addr string)

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airsim", flag.ContinueOnError)
	var (
		mtfs       = fs.Int("mtfs", 6, "major time frames to simulate")
		fault      = fs.Bool("fault", false, "inject the faulty process on P1")
		faultList  = fs.String("faults", "", "comma-separated fault classes to inject with per-kind defaults (e.g. restart-storm,partition-hang)")
		recov      = fs.Bool("recovery", false, "enable the built-in recovery-orchestration policy (restart budgets, quarantine, chi2 safe-mode degradation)")
		switchAt   = fs.Int("switch-at", -1, "request schedule chi2 at this MTF boundary (-1 = never)")
		frames     = fs.Int("frames", 2, "VITRAL frames to print (evenly spaced; last frame always printed)")
		traceOut   = fs.String("trace-out", "", "write the module trace as JSON lines to this file")
		hmOut      = fs.String("hm-out", "", "write the health monitor log as JSON lines to this file")
		telemetry  = fs.String("telemetry", "", "serve telemetry (/metrics, /timeline.json, /flight, /debug/pprof) on this address while running")
		archiveDir = fs.String("archive", "", "append every spine event to a bitemporal flight archive in this directory")
		obsOut     = fs.String("obs-out", "", "write the raw spine event stream as JSON lines to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	const mtf = 1300

	var faults []workload.FaultSpec
	if *faultList != "" {
		for _, name := range strings.Split(*faultList, ",") {
			kind, err := workload.ParseFaultKind(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			faults = append(faults, workload.FaultSpec{Kind: kind})
		}
	}
	if *fault {
		// The Sect. 6 faulty process on P1, after -faults (keeps injector names).
		faults = append(faults, workload.FaultSpec{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220})
	}
	var policy *recovery.Policy
	if *recov {
		pol := config.DefaultRecovery().Policy()
		policy = &pol
	}

	screen, windows := vitral.Grid(
		[]string{"P1 AOCS", "P2 OBDH", "P3 TTC", "P4 FDIR", "AIR PMK", "AIR Health Monitor"},
		2, 56, 6)
	byPartition := map[model.PartitionName]*vitral.Window{
		"P1": windows[0], "P2": windows[1], "P3": windows[2], "P4": windows[3],
	}
	pmkWin, hmWin := windows[4], windows[5]

	m, err := core.NewModule(workload.Config(workload.Options{
		Faults:   faults,
		Recovery: policy,
		Output: func(p model.PartitionName, line string) {
			if w := byPartition[p]; w != nil {
				w.Println(line)
			}
		},
	}))
	if err != nil {
		return err
	}
	defer m.Shutdown()

	// The AIR windows mirror the spine: the PMK window shows what the module
	// trace ring admits except application output (which has its
	// partition's window), the HM window every Health Monitor report. The
	// events are collected as they arrive and printed after each MTF, below
	// any line the loop printed before it. The mirror is attached before the
	// timeline, so the timeline's findings follow the events that caused
	// them, as in the module's own trace.
	mirrored := map[obs.Kind]bool{obs.KindHMReport: true}
	for _, k := range obs.TraceKinds() {
		mirrored[k] = k != obs.KindApplicationMessage
	}
	var pending []obs.Event
	m.Bus().Attach(sinkFunc(func(e obs.Event) {
		if mirrored[e.Kind] {
			pending = append(pending, e)
		}
	}))

	// The timeliness analyzer always rides the spine (its summary line
	// costs nothing); the HTTP endpoints are opt-in.
	tl := timeline.Attach(m.Bus(), timeline.Options{System: model.Fig8System()})

	var asink *archive.Sink
	if *archiveDir != "" {
		if asink, err = archive.Open(*archiveDir, archive.Options{}); err != nil {
			return err
		}
		defer asink.Close()
		m.Bus().Attach(asink)
		tl.SetArchiveStats(func() timeline.ArchiveSnap {
			st := asink.Stats()
			return timeline.ArchiveSnap{Segments: st.Segments, Bytes: st.Bytes, Records: st.Records}
		})
	}
	var obsSink *obs.JSONLSink
	if *obsOut != "" {
		f, err := os.Create(*obsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		obsSink = obs.NewJSONLSink(f)
		m.Bus().Attach(obsSink)
	}

	if *telemetry != "" {
		mux := timeline.Handler(tl)
		if asink != nil {
			// One server answers live metrics and historical forensics.
			mux.Handle("/archive/", archive.Handler(*archiveDir))
		}
		addr, shutdown, err := timeline.Serve(*telemetry, mux)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintln(out, "telemetry serving on", addr)
		if serveHook != nil {
			defer serveHook(addr)
		}
	}

	if err := m.Start(); err != nil {
		return err
	}

	printEvery := *mtfs
	if *frames > 0 {
		printEvery = (*mtfs + *frames - 1) / *frames
	}
	for frame := 1; frame <= *mtfs; frame++ {
		if *switchAt >= 0 && frame == *switchAt {
			pt, err := m.Partition("P1")
			if err != nil {
				return err
			}
			rc := pt.KernelServices().SetModuleScheduleByName("chi2")
			pmkWin.Printf("[%6d] SET_MODULE_SCHEDULE(chi2) -> %s", m.Now(), rc)
		}
		if err := m.Run(mtf); err != nil {
			return err
		}
		for _, e := range pending {
			if e.Kind == obs.KindHMReport {
				hmWin.Println(hmLine(e))
			} else {
				pmkWin.Println(e.String())
			}
		}
		pending = pending[:0]

		st := m.ScheduleStatus()
		pmkWin.Printf("[%6d] MTF %d done; schedule=%s next=%s switches at t=%d",
			m.Now(), frame, st.CurrentName, st.NextName, st.LastSwitch)
		if frame%printEvery == 0 || frame == *mtfs {
			fmt.Fprintf(out, "=== t = %d (MTF %d/%d) ===\n", m.Now(), frame, *mtfs)
			fmt.Fprint(out, screen.Render())
			fmt.Fprintln(out)
		}
	}

	// Counters come from the spine's monotonic metrics registry, not a walk
	// over the bounded trace ring, so they are exact even after overflow.
	snap := m.Metrics()
	fmt.Fprintf(out, "simulation complete: t=%d, deadline misses=%d, schedule switches=%d\n",
		m.Now(), snap.CountKind(obs.KindDeadlineMiss), snap.CountKind(obs.KindScheduleSwitch))
	ts := tl.Snapshot()
	fmt.Fprintf(out, "timeliness: response p50=%d p99=%d max=%d ticks, worst slack=%d, early warnings=%d, model violations=%d\n",
		ts.Response.Quantile(0.5), ts.Response.Quantile(0.99), ts.Response.Max,
		ts.Slack.Min, ts.EarlyWarnings, ts.ModelViolations)
	if policy != nil {
		fmt.Fprintf(out, "recovery: %d restarts deferred, %d quarantines, %d recovered (MTTR mean %.1f ticks), %d ticks degraded, %d restores\n",
			snap.CountKind(obs.KindRestartDeferred), snap.CountKind(obs.KindQuarantineEnter),
			snap.CountKind(obs.KindQuarantineExit), snap.MTTR.Mean,
			snap.DegradedTicks.Sum, snap.CountKind(obs.KindScheduleRestore))
	}

	if obsSink != nil {
		if err := obsSink.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(out, "spine stream written to", *obsOut)
	}
	if asink != nil {
		if err := asink.Close(); err != nil {
			return err
		}
		st := asink.Stats()
		fmt.Fprintf(out, "archive written to %s (%d records, %d segments)\n",
			*archiveDir, st.Records, st.Segments)
	}

	if *traceOut != "" {
		if err := writeExport(*traceOut, m.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintln(out, "trace written to", *traceOut)
	}
	if *hmOut != "" {
		if err := writeExport(*hmOut, m.WriteHealthLog); err != nil {
			return err
		}
		fmt.Fprintln(out, "health log written to", *hmOut)
	}
	return nil
}

func writeExport(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

// Emit implements obs.Sink.
func (f sinkFunc) Emit(e obs.Event) { f(e) }

// hmLine renders a KindHMReport spine event as hm.Event.String renders the
// log record the monitor published it for.
func hmLine(e obs.Event) string {
	who := string(e.Partition)
	if e.Process != "" {
		who += "/" + e.Process
	}
	return fmt.Sprintf("[%6d] HM %s level=%s at=%s action=%s %s",
		e.Time, e.Code, e.Level, who, e.Action, e.Detail)
}
