// Command aircampaign runs a parallel fault-injection campaign: many
// independent module simulations distributed over a worker pool, sweeping a
// declarative fault matrix (deadline overruns, out-of-partition memory
// writes, mode-switch storms, sporadic-arrival overload, IPC flooding) and
// folding the per-run observations into an aggregate robustness report
// (JSON + Markdown).
//
// Usage:
//
//	aircampaign [-runs n] [-workers n] [-matrix file.json] [-out result.json]
//	            [-seed n] [-mtfs n] [-watchdog d] [-timing] [-scaling] [-metrics]
//	            [-recovery] [-fork-prefix] [-prefix-mtfs n] [-journal file]
//	            [-archive dir] [-telemetry addr]
//	aircampaign -write-matrix file.json
//
// Campaigns execute through the fleet coordinator (internal/fleet) with
// in-process worker shards — the same lease dispatch and in-order merge
// that cmd/aircampaignd distributes across processes — so -journal makes a
// long campaign resumable: re-invoking an interrupted run with the same
// spec and journal re-runs only the leases that never completed.
//
// -telemetry serves the campaign's merged timeliness view live on the given
// address (/metrics Prometheus text, /timeline.json for cmd/airmon, /flight,
// /debug/pprof): each finished run folds into the served aggregate, so
// watching the endpoints shows the campaign converge.
//
// -archive attaches the bitemporal flight archive (internal/archive) to every
// run: run r's spine events land durably under <dir>/<campaignID>/run-0000r/,
// ready for as-of queries, range scans and run diffing (airtrace -archive, or
// the /archive/* endpoints mounted on -telemetry). Archiving never changes
// results.
//
// -recovery applies the built-in recovery-orchestration policy (restart
// budgets, partition quarantine, graceful degradation to the chi2 safe-mode
// schedule) to every run and reports its effectiveness: deferred restarts,
// quarantine count, MTTR, ticks spent degraded and schedule restores.
//
// -fork-prefix shares the fault-free warm-up across runs: the coordinator
// simulates the first -prefix-mtfs major frames once, snapshots the module at
// a quiescent point, and forks every run's fault variant from that snapshot
// instead of re-simulating the prefix. Results stay deterministic in the same
// inputs but differ from non-fork campaigns by construction — every fault
// activates after the shared prefix, and the timeliness view covers only the
// post-fork suffix.
//
// Results are deterministic in (-seed, -runs, -mtfs, matrix): the JSON and
// Markdown artifacts are byte-identical across repetitions and worker
// counts. Wall-clock throughput goes to stdout (and into the Markdown
// report only with -timing, which makes the report nondeterministic).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"air/internal/archive"
	"air/internal/campaign"
	"air/internal/config"
	"air/internal/fleet"
	"air/internal/obs"
	"air/internal/report"
	"air/internal/timeline"
)

// mergedSource serves the campaign's live telemetry: finished runs fold
// their snapshots in from worker goroutines while the HTTP handlers read the
// merged view. The flight dump is empty — post-mortem recording is a
// per-module notion; use airsim -telemetry for it.
type mergedSource struct {
	mu   sync.Mutex
	snap timeline.Snapshot
	reg  obs.Snapshot
}

func (s *mergedSource) fold(ob campaign.Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = s.snap.Add(ob.Timeline)
	s.reg = s.reg.Add(ob.Metrics)
}

func (s *mergedSource) Snapshot() timeline.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

func (s *mergedSource) Registry() obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg
}

func (s *mergedSource) Flight() timeline.FlightDump {
	return timeline.FlightDump{Frames: []timeline.FlightFrame{}}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aircampaign:", err)
		os.Exit(1)
	}
}

// serveHook, when set (tests), is called with the telemetry server's address
// while it is live — the seam the -telemetry smoke test probes through,
// since the server shuts down when run returns.
var serveHook func(addr string)

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aircampaign", flag.ContinueOnError)
	var (
		runs        = fs.Int("runs", 100, "number of independent simulation runs")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size (affects wall clock only, never results)")
		journal     = fs.String("journal", "", "checkpoint journal (CRC-framed records); an interrupted campaign re-invoked with the same spec and journal resumes, re-running only unfinished leases")
		matrixPath  = fs.String("matrix", "", "campaign matrix JSON (default: built-in mixed-fault matrix)")
		outPath     = fs.String("out", "", "write result JSON here (and Markdown to the .md sibling)")
		seed        = fs.Uint64("seed", 1, "campaign master seed")
		mtfs        = fs.Int("mtfs", 20, "major time frames per run")
		watchdog    = fs.Duration("watchdog", 0, "per-run wall-clock watchdog (0 = off; tripped runs degrade)")
		timing      = fs.Bool("timing", false, "include wall-clock throughput in the Markdown report (nondeterministic)")
		scaling     = fs.Bool("scaling", false, "sweep worker counts {1,2,4,NumCPU} and print a throughput table")
		metrics     = fs.Bool("metrics", false, "print per-fault-class spine counter deltas against the fault-free baseline scenario")
		recov       = fs.Bool("recovery", false, "apply the built-in recovery-orchestration policy (restart budgets, quarantine, chi2 safe-mode degradation) to every run")
		forkPrefix  = fs.Bool("fork-prefix", false, "simulate the fault-free warm-up prefix once and fork each run's variant from the snapshot (faults then activate after the prefix; timeline stats cover the suffix only)")
		prefixMTFs  = fs.Int("prefix-mtfs", 0, "shared prefix length in MTFs for -fork-prefix (0 = half of -mtfs)")
		archiveDir  = fs.String("archive", "", "store each run's bitemporal flight archive under this directory (time-travel queries and run diffing via airtrace or /archive/* on -telemetry)")
		writeMatrix = fs.String("write-matrix", "", "write the built-in matrix to this file and exit")
		telemetry   = fs.String("telemetry", "", "serve the merged campaign timeliness view (/metrics, /timeline.json, /flight, /debug/pprof) on this address while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *writeMatrix != "" {
		if err := config.DefaultCampaign().Save(*writeMatrix); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote built-in matrix to %s\n", *writeMatrix)
		return nil
	}

	spec := campaign.Spec{Seed: *seed}
	if *matrixPath != "" {
		doc, err := config.LoadCampaign(*matrixPath)
		if err != nil {
			return err
		}
		spec, err = campaign.FromConfig(doc)
		if err != nil {
			return err
		}
	}
	// Explicit flags override matrix-document execution defaults; flag
	// defaults fill whatever remains unset.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["runs"] || spec.Runs == 0 {
		spec.Runs = *runs
	}
	if set["workers"] || spec.Workers == 0 {
		spec.Workers = *workers
	}
	if set["seed"] || spec.Seed == 0 {
		spec.Seed = *seed
	}
	if set["mtfs"] || spec.MTFs == 0 {
		spec.MTFs = *mtfs
	}
	if set["watchdog"] {
		spec.Watchdog = *watchdog
	}
	if set["fork-prefix"] {
		spec.ForkPrefix = *forkPrefix
	}
	if set["prefix-mtfs"] || spec.PrefixMTFs == 0 {
		spec.PrefixMTFs = *prefixMTFs
	}
	if set["archive"] || spec.ArchiveDir == "" {
		spec.ArchiveDir = *archiveDir
	}
	// -recovery layers the built-in policy on top of whatever the matrix
	// document configured (flag wins, matching the other overrides).
	if *recov {
		pol := config.DefaultRecovery().Policy()
		spec.Recovery = &pol
	}

	if *telemetry != "" {
		src := &mergedSource{}
		spec.OnObservation = src.fold
		mux := timeline.Handler(src)
		if spec.ArchiveDir != "" {
			// Historical forensics ride the same server as live telemetry:
			// /archive/asof, /archive/range and /archive/diff answer over the
			// runs the campaign has archived so far.
			mux.Handle("/archive/", archive.Handler(spec.ArchiveDir))
		}
		addr, shutdown, err := timeline.Serve(*telemetry, mux)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(out, "telemetry serving on %s\n", addr)
		if serveHook != nil {
			defer serveHook(addr)
		}
	}

	if *scaling {
		return runScaling(out, spec)
	}

	if max := runtime.GOMAXPROCS(0); spec.Workers > max {
		fmt.Fprintf(out, "warning: -workers %d oversubscribes %d schedulable CPUs; extra workers cost scheduling churn, never results\n",
			spec.Workers, max)
	}

	// The local run is the fleet coordinator with in-process shards: same
	// lease dispatch, same in-order merge, byte-identical to the
	// single-process engine — and resumable when -journal is set.
	before := runtime.NumGoroutine()
	res, err := fleet.RunLocal(spec, fleet.LocalOptions{Shards: spec.Workers, JournalPath: *journal})
	if err != nil {
		return err
	}
	after := waitGoroutineBaseline(before)

	agg := res.Aggregate
	fmt.Fprintf(out, "campaign: %d runs × %d MTFs, seed %d, %d workers\n",
		res.Runs, res.MTFs, res.Seed, res.Timing.Workers)
	fmt.Fprintf(out, "  completed %d, degraded %d, halted %d\n",
		agg.Runs-agg.Degraded, agg.Degraded, agg.Halted)
	fmt.Fprintf(out, "  %d ticks in %v — %.0f ticks/s aggregate\n",
		agg.Ticks, res.Timing.Elapsed.Round(time.Millisecond), res.Timing.TicksPerSecond)
	fmt.Fprintf(out, "  deadline misses %d (mean detection latency %.1f ticks, max %d)\n",
		agg.DeadlineMisses, agg.DetectionLatencyMean, agg.DetectionLatencyMax)
	fmt.Fprintf(out, "  HM events %d, partition restarts %d, process restarts %d, schedule switches %d\n",
		agg.HMEvents, agg.PartitionRestarts, agg.ProcessRestarts, agg.ScheduleSwitches)
	fmt.Fprintf(out, "  containment: %d/%d runs confined HM activity to fault-target partitions\n",
		agg.ContainedRuns, agg.Runs)
	fmt.Fprintf(out, "  timeliness: response p50=%d p99=%d max=%d ticks, worst slack=%d, early warnings=%d (lead mean %.1f max %d), model violations=%d\n",
		agg.ResponseP50, agg.ResponseP99, agg.ResponseMax, agg.WorstSlack,
		agg.EarlyWarnings, agg.EarlyWarningLeadMean, agg.EarlyWarningLeadMax, agg.ModelViolations)
	if spec.Recovery != nil || agg.Quarantines > 0 || agg.RestartsDeferred > 0 {
		fmt.Fprintf(out, "  recovery: %d restarts deferred, %d quarantines, %d recovered (MTTR mean %.1f ticks, max %d)\n",
			agg.RestartsDeferred, agg.Quarantines, agg.Recoveries, agg.MTTRMean, agg.MTTRMax)
		fmt.Fprintf(out, "  degradation: %d ticks in safe-mode schedules, %d nominal-schedule restores\n",
			agg.TicksDegraded, agg.ScheduleRestores)
	}
	fmt.Fprintf(out, "  HM events by fault class:\n")
	for _, line := range faultKindLines(agg) {
		fmt.Fprintf(out, "    %s\n", line)
	}
	if *metrics {
		matrix := spec.Matrix
		if len(matrix) == 0 {
			matrix = campaign.DefaultMatrix()
		}
		for _, line := range metricsLines(agg, baselineScenario(matrix)) {
			fmt.Fprintf(out, "  %s\n", line)
		}
	}
	fmt.Fprintf(out, "  goroutines: %d before, %d after\n", before, after)
	if spec.ArchiveDir != "" {
		fmt.Fprintf(out, "  flight archives under %s\n", spec.ArchiveDir)
	}

	if *outPath != "" {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		mdPath := mdSibling(*outPath)
		md, err := os.Create(mdPath)
		if err != nil {
			return err
		}
		werr := report.WriteCampaign(md, res, *timing)
		if cerr := md.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(out, "  wrote %s and %s\n", *outPath, mdPath)
	}
	return nil
}

// runScaling reruns the identical campaign at increasing worker counts and
// prints the aggregate throughput of each, verifying on the way that the
// serialized results stay byte-identical.
func runScaling(out io.Writer, spec campaign.Spec) error {
	counts := workerSweep(runtime.NumCPU())
	fmt.Fprintf(out, "scaling sweep: %d runs × %d MTFs, seed %d (results identical across worker counts)\n",
		spec.Runs, spec.MTFs, spec.Seed)
	fmt.Fprintf(out, "  workers   elapsed        ticks/s   speedup\n")
	var baseline float64
	var ref []byte
	for _, w := range counts {
		spec.Workers = w
		res, err := campaign.Run(spec)
		if err != nil {
			return err
		}
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if ref == nil {
			ref = data
		} else if string(ref) != string(data) {
			return fmt.Errorf("results at %d workers differ from baseline", w)
		}
		tps := res.Timing.TicksPerSecond
		if baseline == 0 {
			baseline = tps
		}
		fmt.Fprintf(out, "  %7d   %-12v %9.0f   %.2fx\n",
			w, res.Timing.Elapsed.Round(time.Millisecond), tps, tps/baseline)
	}
	return nil
}

// workerSweep is {1, 2, 4, NumCPU} deduplicated and ordered.
func workerSweep(ncpu int) []int {
	counts := []int{1, 2, 4}
	if ncpu > 4 {
		counts = append(counts, ncpu)
	}
	return counts
}

// waitGoroutineBaseline briefly polls for process goroutines still winding
// down after Shutdown, so the reported "after" count reflects steady state.
func waitGoroutineBaseline(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func faultKindLines(agg campaign.Aggregate) []string {
	keys := make([]string, 0, len(agg.HMByFaultKind))
	for k := range agg.HMByFaultKind {
		keys = append(keys, k)
	}
	sortedStrings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("%-18s %d", k, agg.HMByFaultKind[k])
	}
	return lines
}

// baselineScenario names the matrix's fault-free scenario ("" when the
// matrix has none), the reference the -metrics deltas are taken against.
func baselineScenario(matrix []campaign.Scenario) string {
	for _, sc := range matrix {
		if len(sc.Faults) == 0 {
			return sc.Name
		}
	}
	return ""
}

// metricsLines renders the observability spine's per-fault-class counter
// deltas: for every scenario, each event kind's per-run mean count minus the
// fault-free baseline scenario's per-run mean — the counter surplus the
// fault class provokes.
func metricsLines(agg campaign.Aggregate, baseline string) []string {
	perRun := func(name string) map[string]float64 {
		ca := agg.ByScenario[name]
		if ca == nil || ca.Runs == 0 {
			return nil
		}
		means := make(map[string]float64, len(ca.Metrics.Counts))
		for kind, c := range ca.Metrics.Counts {
			means[kind] = float64(c) / float64(ca.Runs)
		}
		return means
	}
	base := perRun(baseline)
	header := "spine counters by scenario (per-run mean)"
	if base != nil {
		header = fmt.Sprintf("spine counter deltas by scenario (per-run mean vs %s)", baseline)
	}
	lines := []string{header + ":"}
	for _, name := range sortedStrings(scenarioKeys(agg.ByScenario)) {
		if name == baseline && base != nil {
			continue
		}
		means := perRun(name)
		lines = append(lines, fmt.Sprintf("%s (%d runs):", name, agg.ByScenario[name].Runs))
		kinds := map[string]bool{}
		for k := range means {
			kinds[k] = true
		}
		for k := range base {
			kinds[k] = true
		}
		for _, k := range sortedStrings(boolKeys(kinds)) {
			delta := means[k] - base[k]
			if delta > -0.005 && delta < 0.005 {
				continue
			}
			lines = append(lines, fmt.Sprintf("  %-22s %+8.2f/run", k, delta))
		}
	}
	return lines
}

func scenarioKeys(m map[string]*campaign.ClassAgg) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func boolKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// sortedStrings insertion-sorts in place and returns its argument (small
// fixed sets; keeps the tool dependency-free).
func sortedStrings(keys []string) []string {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func mdSibling(jsonPath string) string {
	if strings.HasSuffix(jsonPath, ".json") {
		return strings.TrimSuffix(jsonPath, ".json") + ".md"
	}
	return jsonPath + ".md"
}
