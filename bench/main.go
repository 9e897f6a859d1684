// Command bench is the simulator's end-to-end and per-layer benchmark. It
// drives four workloads through the public functions of core, workload,
// timeline, archive, campaign and fleet, checks their results against
// oracles, and prints every metric by name with its unit. The last line of
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	bash bench/run.sh --workload mission --seed 1 --seconds 25 --trace 0
//	cd bench && go run . --workload all
//
// With --trace 1 the run measures the workload untraced for half the time,
// then traced for the other half, and reports the per-layer metrics instead
// of the end-to-end ones; its spans go to <trace-dir>/<workload>.trace.json.
// --workload all and --repeat re-execute this binary once per run, so
// peak RSS and GC counters are per workload. See README.md.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's machine-readable result: the last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sizes fixes how much work each unit of a workload does. The measured
// window is set by --seconds; sizes set the grain of what repeats inside it.
type sizes struct {
	setups            int // set-up repetitions (per round on flight-archive; fleet-http sets up once per campaign)
	missionCheckpoint int // MTFs before the mission digest is taken

	forkRuns, forkMTFs, forkPrefixMTFs, forkWarmupRuns, forkWorkers int

	fleetRuns, fleetMTFs, fleetLease, fleetWorkers int

	archiveMTFs      int
	phaseLo, phaseHi int // MTF window of run B's memory-violation phase

	replays int // campaign runs replayed phase by phase in a traced run
}

// defaultSizes are the sizes BENCHMARK.json and pinned.json describe.
var defaultSizes = sizes{
	setups:            5,
	missionCheckpoint: 100,
	forkRuns:          256, forkMTFs: 20, forkPrefixMTFs: 10, forkWarmupRuns: 8, forkWorkers: 2,
	fleetRuns: 512, fleetMTFs: 3, fleetLease: 2, fleetWorkers: 2,
	archiveMTFs: 1000, phaseLo: 500, phaseHi: 750,
	replays: 64,
}

// config is what one workload run receives.
type config struct {
	seed   uint64
	budget time.Duration
	size   sizes
}

type workloadDef struct {
	name string
	// seeded reports whether the seed changes the workload's inputs; an
	// unseeded workload's digest is pinned for every seed.
	seeded bool
	// procs is the GOMAXPROCS the workload runs at; 0 keeps the default.
	// The single-module workloads run at 1: at 2 the kernel↔process
	// handoff lands on the other vCPU in some processes and not in others,
	// which made their medians bimodal from run to run.
	procs int
	run   func(cfg config, tr *tracer) (*outcome, error)
}

var workloads = []workloadDef{
	{"mission", false, 1, runMission},
	{"campaign-fork", true, 0, runCampaignFork},
	{"fleet-http", true, 0, runFleetHTTP},
	{"flight-archive", true, 1, runFlightArchive},
}

// outcome is what a workload run measured and verified. Verification is
// never inside a timed interval.
type outcome struct {
	attempted, failed int
	problems          []string
	digest            string
	setup             []time.Duration // one per set-up repetition
	tput              []float64       // simulated ticks per host second, per slice or repetition
	ops               []time.Duration // latency of each timed op
}

// check counts n failed ops when ok is false.
func (o *outcome) check(ok bool, n int, format string, args ...any) {
	if ok {
		return
	}
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// pinned holds the result digests of every workload at the default seed
// and sizes; a run at that seed must reproduce them.
//
//go:embed pinned.json
var pinnedJSON []byte

type pins struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: mission, campaign-fork, fleet-http, flight-archive or all")
	seed := fs.Uint64("seed", 1, "seed the workload inputs derive from")
	secs := fs.Float64("seconds", 25, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for <workload>.trace.json")
	repeat := fs.Int("repeat", 0, "run each workload this many times (one process each) and print medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive, --trace 0 or 1, --repeat non-negative")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	childArgs := func(w string) []string {
		return []string{"--workload", w, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*secs),
			"--trace", fmt.Sprint(*trace), "--trace-dir", *traceDir}
	}
	if *repeat > 0 {
		return repeatRuns(selected, *repeat, *seed, *secs, childArgs, stdout, stderr)
	}
	if len(selected) > 1 {
		return runAll(selected, childArgs, stdout, stderr)
	}

	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		fmt.Fprintln(stderr, "bench: pinned.json:", err)
		return 1
	}
	w := selected[0]
	cfg := config{seed: *seed, budget: time.Duration(*secs * float64(time.Second)), size: defaultSizes}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, *seed, *secs, *trace)
	sum, err := measure(w, cfg, *trace == 1, *traceDir, p, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, mustJSON(sum))
	return 0
}

// measure runs one workload and returns its summary. Untraced, the metrics
// are the end-to-end ones. Traced, the workload runs untraced for half the
// budget and traced for the other half; the metrics are the per-layer ones.
func measure(w workloadDef, cfg config, traced bool, traceDir string, p pins, out io.Writer) (summary, error) {
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	mach := machineShape()
	fmt.Fprintf(out, "machine %s\n", mustJSON(mach))
	pinned := func(o *outcome) {
		want, ok := p.Digests[w.name]
		if ok && cfg.size == defaultSizes && (cfg.seed == p.Seed || !w.seeded) {
			o.check(o.digest == want, 1, "digest %s, pinned %s", o.digest, want)
		}
	}
	if !traced {
		o, err := w.run(cfg, nil)
		if err != nil {
			return summary{}, err
		}
		pinned(o)
		report(out, o)
		return summary{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: endToEnd(o)}, nil
	}
	half := cfg
	half.budget /= 2
	base, err := w.run(half, nil)
	if err != nil {
		return summary{}, err
	}
	tr := newTracer(cfg.seed)
	m0 := memSnapshot()
	t0 := time.Now()
	o, err := w.run(half, tr)
	if err != nil {
		return summary{}, err
	}
	m1 := memSnapshot()
	layers := perLayer(tr, base, o, m0, m1, time.Since(t0))
	o.check(o.digest == base.digest, 1, "traced digest %s, untraced %s", o.digest, base.digest)
	pinned(o)
	o.attempted += base.attempted
	o.failed += base.failed
	o.problems = append(base.problems, o.problems...)
	report(out, o)
	path, err := tr.write(traceDir, traceFile{Machine: mach, Workload: w.name, Seed: cfg.seed, Layers: layers})
	if err != nil {
		return summary{}, fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintln(out, "trace", path)
	return summary{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: layers}, nil
}

// report prints the human-readable part of a run's output.
func report(out io.Writer, o *outcome) {
	fmt.Fprintln(out, "digest", o.digest)
	fmt.Fprintln(out, "ops", o.attempted)
	fmt.Fprintln(out, "ops_failed", o.failed)
	for _, p := range o.problems {
		fmt.Fprintln(out, "FAILED", p)
	}
}

// endToEnd derives the end-to-end metrics every workload reports.
func endToEnd(o *outcome) map[string]metric {
	ops := millis(o.ops)
	return map[string]metric{
		"setup_s":         {median(seconds(o.setup)), "s"},
		"sim_ticks_per_s": {median(o.tput), "ticks/s"},
		"op_ms_p50":       {percentile(ops, 50), "ms"},
		"rss_peak_mb":     {peakRSSMB(), "MB"},
	}
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runChild re-executes this binary and returns its output and the summary
// on its last line.
func runChild(args []string, stderr io.Writer) ([]byte, summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, summary{}, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return out, summary{}, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var s summary
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return out, summary{}, fmt.Errorf("%s: last line: %w", strings.Join(args, " "), err)
	}
	return out, s, nil
}

// runAll runs each workload in its own process and ends with a combined
// summary whose metric names are prefixed "<workload>:".
func runAll(ws []workloadDef, childArgs func(string) []string, stdout, stderr io.Writer) int {
	all := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		out, s, err := runChild(childArgs(w.name), stderr)
		stdout.Write(out)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, m := range s.Metrics {
			all.Metrics[w.name+":"+k] = m
		}
	}
	fmt.Fprintln(stdout, mustJSON(all))
	return 0
}

// spread is one metric's distribution over a set of repeated runs.
type spread struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// runSet is a recorded set: N runs of each workload at one seed. Its
// machine shape carries the default GOMAXPROCS; each workload records the
// one it ran at.
type runSet struct {
	Machine   machine                `json:"machine"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Runs      int                    `json:"runs"`
	Correct   bool                   `json:"correct"`
	Workloads map[string]workloadSet `json:"workloads"`
}

type workloadSet struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	Metrics    map[string]spread `json:"metrics"`
}

// repeatRuns runs every selected workload n times, alternating workloads
// between rounds, and prints the medians and quartiles of each metric.
func repeatRuns(ws []workloadDef, n int, seed uint64, secs float64, childArgs func(string) []string, stdout, stderr io.Writer) int {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	set := runSet{Machine: machineShape(), Seed: seed, Seconds: secs, Runs: n, Correct: true,
		Workloads: map[string]workloadSet{}}
	for i := 0; i < n; i++ {
		for _, w := range ws {
			_, s, err := runChild(childArgs(w.name), stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			set.Correct = set.Correct && s.Correct
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for k, m := range s.Metrics {
				values[w.name][k] = append(values[w.name][k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(stderr, "bench: %s run %d/%d done\n", w.name, i+1, n)
		}
	}
	for _, w := range ws {
		entry := workloadSet{GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: map[string]spread{}}
		if w.procs > 0 {
			entry.GOMAXPROCS = w.procs
		}
		for k, xs := range values[w.name] {
			q1, q2, q3 := quartiles(xs)
			entry.Metrics[k] = spread{Unit: units[k], Median: q2, Q1: q1, Q3: q3}
		}
		set.Workloads[w.name] = entry
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// machine is the shape every output and recorded set carries.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"goos_goarch"`
	Commit     string `json:"commit"`
}

func machineShape() machine {
	return machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves HEAD of a git checkout in the working directory without
// running git; "unknown" outside one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are marshalled here
	}
	return string(data)
}
