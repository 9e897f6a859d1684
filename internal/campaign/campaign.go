// Package campaign is the parallel fault-injection campaign engine: it runs
// many independent module simulations concurrently across a worker pool,
// sweeping a declarative fault matrix over the satellite scenario (deadline
// overruns of varying magnitude and phase, out-of-partition memory writes,
// mode-switch storms, sporadic-arrival overload, IPC flooding) and folding
// the per-run observations into an aggregate robustness report.
//
// Each module is deterministic and single-threaded (strict alternation),
// so runs parallelize perfectly: a campaign's results depend only on
// (seed, run index, matrix) — never on worker count or scheduling — and are
// byte-identical across repetitions. A crashed or wedged run is contained:
// it is recorded as a degraded observation, its goroutines reaped via
// Module.Shutdown, and the campaign continues.
package campaign

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"air/internal/archive"
	"air/internal/core"
	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/recovery"
	"air/internal/tick"
	"air/internal/timeline"
	"air/internal/wire"
	"air/internal/workload"
)

// Range is an inclusive parameter interval; the per-run generator draws
// uniformly from it. Max <= Min pins the parameter to Min (zero Range = use
// the fault kind's default).
type Range struct {
	Min tick.Ticks
	Max tick.Ticks
}

// FaultRange declares one fault of a scenario with sweepable parameters;
// see workload.FaultSpec for the parameter semantics.
type FaultRange struct {
	Kind      workload.FaultKind
	Partition model.PartitionName
	Deadline  Range
	Magnitude Range
	Period    Range
	Phase     Range
}

// Scenario is one row of the fault matrix: a named fault combination with a
// selection weight.
type Scenario struct {
	Name string
	// Weight biases scenario selection; values <= 0 count as 1.
	Weight int
	// Faults lists the faults injected together in this scenario; empty
	// means a fault-free baseline run.
	Faults []FaultRange
}

// Spec configures a campaign.
type Spec struct {
	// Runs is the number of independent simulations (default 1).
	Runs int
	// Workers sizes the worker pool (default runtime.NumCPU()). Worker
	// count affects only wall-clock time, never results.
	Workers int
	// Seed is the campaign master seed; per-run seeds derive from it.
	Seed uint64
	// MTFs is each run's length in major time frames (default 20).
	MTFs int
	// Watchdog bounds each run's wall-clock time; a run exceeding it is
	// recorded as degraded (checked between MTF-sized chunks). 0 disables
	// the watchdog, keeping results fully deterministic.
	Watchdog time.Duration
	// TraceCapacity sizes each module's trace ring. Campaign observations
	// derive entirely from the HM log and the metrics registry, so the
	// default is -1 — no ring at all, sparing every run (and every
	// prefix-fork clone) the copy of trace events nothing reads. A ring
	// grows to its bound as events arrive, so that copy is what the ring
	// holds, not its capacity. Set > 0 to retain per-run traces when
	// debugging through OnObservation hooks.
	TraceCapacity int
	// Matrix is the fault matrix (default DefaultMatrix()).
	Matrix []Scenario
	// ForkPrefix enables campaign prefix sharing: the fault-free warm-up
	// prefix (PrefixMTFs major time frames, identical for every run because
	// faults are the only per-run variation) is simulated once, snapshotted
	// at a quiescent point, and each run forks the snapshot and injects its
	// fault variant instead of re-simulating the prefix from zero. Results
	// remain a pure function of (Seed, Runs, MTFs, Matrix) — workers fork
	// concurrently from one read-only snapshot — but differ from
	// non-fork-mode results in one documented way: injected faults activate
	// after the prefix rather than at tick zero, and the per-run timeline
	// covers only the post-fork suffix.
	ForkPrefix bool
	// PrefixMTFs is the shared prefix length in major time frames (default
	// MTFs/2, clamped to [1, MTFs-1]). Meaningful only with ForkPrefix.
	PrefixMTFs int
	// Recovery applies a recovery-orchestration policy (restart budgets,
	// quarantine, safe-mode degradation) to every run, populating the
	// recovery-effectiveness columns of the result. Nil runs without the
	// recovery layer — the baseline the policy's effect is measured against.
	Recovery *recovery.Policy
	// ArchiveDir, when non-empty, attaches a bitemporal flight archive
	// (internal/archive) to every run's spine: run r's events land in
	// RunDir(ArchiveDir, r), ready for as-of queries and run diffing. In
	// fork mode the archive covers only the post-prefix suffix, matching
	// the run's timeline. Archiving never changes results.
	ArchiveDir string
	// OnObservation, when non-nil, is invoked with each run's finished
	// observation — the live-telemetry hook (aircampaign -telemetry folds
	// these into a served aggregate). Called from worker goroutines: the
	// callback must be safe for concurrent use and should return quickly.
	OnObservation func(Observation) `json:"-"`
	// Clock supplies wall-clock readings for the engine's only
	// nondeterministic inputs — Timing, per-run WallNanos and the watchdog —
	// none of which feed simulation results. Nil defaults to the real clock;
	// tests inject a fake to exercise the watchdog deterministically. Called
	// from worker goroutines: must be safe for concurrent use.
	Clock func() time.Time `json:"-"`
}

func (s Spec) withDefaults() Spec {
	if s.Runs <= 0 {
		s.Runs = 1
	}
	if s.Workers <= 0 {
		s.Workers = runtime.NumCPU()
	}
	if s.MTFs <= 0 {
		s.MTFs = 20
	}
	if s.TraceCapacity == 0 {
		s.TraceCapacity = -1
	}
	if len(s.Matrix) == 0 {
		s.Matrix = DefaultMatrix()
	}
	if s.Clock == nil {
		s.Clock = wallClock
	}
	if s.ForkPrefix {
		if s.PrefixMTFs <= 0 {
			s.PrefixMTFs = s.MTFs / 2
		}
		if s.PrefixMTFs > s.MTFs-1 {
			s.PrefixMTFs = s.MTFs - 1
		}
		if s.PrefixMTFs < 1 {
			// A 1-MTF run has no prefix to share.
			s.ForkPrefix = false
			s.PrefixMTFs = 0
		}
	}
	return s
}

// Defaulted returns the spec with unset execution parameters filled in —
// the concrete form the fleet coordinator (internal/fleet) journals, leases
// against and hands to worker shards.
func (s Spec) Defaulted() Spec { return s.withDefaults() }

// wallClock is the campaign engine's single wall-clock tap: every
// elapsed-time reading goes through Spec.Clock, which defaults here.
func wallClock() time.Time {
	//air:allow(wallclock): host wall time feeds only Timing and the watchdog, never simulation state; tests inject a fake via Spec.Clock
	return time.Now()
}

// MaxRuns bounds Spec.Runs. A fleet coordinator allocates one lease record
// per lease when it accepts a campaign, before any run executes, so an
// unbounded run count in one remote submission — journaled, and so
// replayed on every restart — could exhaust its memory. 2^24 runs are
// 262,144 leases of 64.
const MaxRuns = 1 << 24

// Validate rejects structurally broken campaign specifications. It operates
// on the defaulted spec, so a zero Spec is valid.
func (s Spec) Validate() error {
	if s.Runs > MaxRuns {
		return fmt.Errorf("campaign: %d runs exceed the maximum of %d", s.Runs, MaxRuns)
	}
	seen := make(map[string]bool, len(s.Matrix))
	for i, sc := range s.Matrix {
		if sc.Name == "" {
			return fmt.Errorf("campaign: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("campaign: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		for j, fr := range sc.Faults {
			if err := (workload.FaultSpec{Kind: fr.Kind, Partition: fr.Partition}).Validate(); err != nil {
				return fmt.Errorf("campaign: scenario %q fault %d: %w", sc.Name, j, err)
			}
			for _, r := range []Range{fr.Deadline, fr.Magnitude, fr.Period, fr.Phase} {
				if r.Min < 0 || r.Max < 0 {
					return fmt.Errorf("campaign: scenario %q fault %d: negative range", sc.Name, j)
				}
			}
		}
	}
	if s.Recovery != nil {
		sys := model.Fig8System()
		schedules := make([]string, len(sys.Schedules))
		for i, sched := range sys.Schedules {
			schedules[i] = sched.Name
		}
		if err := s.Recovery.Validate(sys.Partitions, schedules); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	return nil
}

// --- deterministic per-run randomness ----------------------------------------

const golden = 0x9E3779B97F4A7C15

// rng is a splitmix64 stream. Each run gets its own stream derived from the
// campaign seed and the run index, so a run's draws are independent of
// every other run and of the worker that executes it.
type rng struct{ state uint64 }

func runSeed(seed uint64, run int) uint64 {
	return seed ^ (uint64(run)+1)*golden
}

// RunDir names run's archive directory under an archive root — the one
// naming convention shared by the campaign engine, the fleet coordinator's
// durable store and the /archive/* query endpoints.
func RunDir(root string, run int) string {
	return filepath.Join(root, fmt.Sprintf("run-%05d", run))
}

func newRunRNG(seed uint64, run int) *rng {
	return &rng{state: runSeed(seed, run)}
}

func (r *rng) next() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) draw(rr Range) tick.Ticks {
	if rr.Max <= rr.Min {
		return rr.Min
	}
	return rr.Min + tick.Ticks(r.next()%uint64(rr.Max-rr.Min+1))
}

func pickScenario(matrix []Scenario, r *rng) Scenario {
	total := 0
	for _, sc := range matrix {
		total += weightOf(sc)
	}
	n := r.intn(total)
	for _, sc := range matrix {
		n -= weightOf(sc)
		if n < 0 {
			return sc
		}
	}
	return matrix[len(matrix)-1]
}

func weightOf(sc Scenario) int {
	if sc.Weight <= 0 {
		return 1
	}
	return sc.Weight
}

// --- campaign execution -------------------------------------------------------

// Run executes the campaign: Runs independent simulations distributed over
// a pool of Workers goroutines, folded into an aggregate Result. Results
// are a pure function of (Seed, Runs, MTFs, Matrix); Workers and wall time
// only appear in Result.Timing, which is excluded from serialization.
func Run(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	start := spec.Clock()
	sh, err := RunShard(spec, 0, spec.Runs)
	if err != nil {
		return nil, err
	}
	elapsed := spec.Clock().Sub(start)

	res := &Result{
		Seed:         spec.Seed,
		Runs:         spec.Runs,
		MTFs:         spec.MTFs,
		Scenarios:    scenarioNames(spec.Matrix),
		Observations: sh.Observations,
		Aggregate:    Fold(sh.Observations),
	}
	res.Timing = &Timing{
		Workers: spec.Workers,
		Elapsed: elapsed,
		Ticks:   res.Aggregate.Ticks,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.Timing.TicksPerSecond = float64(res.Aggregate.Ticks) / sec
	}
	return res, nil
}

// Shard is the outcome of executing one contiguous slice of a campaign's
// run space — the unit a fleet worker computes per lease, in one of two
// forms: Observations, or Aggregate, their in-order fold. Merging shard
// aggregates in shard order reproduces the whole-campaign aggregate.
type Shard struct {
	// Start and End delimit the half-open run range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Observations holds the range's per-run outcomes, indexed run-Start.
	Observations []Observation `json:"observations,omitempty"`
	// Aggregate replaces Observations when a fleet coordinator streams.
	Aggregate *Aggregate `json:"aggregate,omitempty"`
	// Archives carries the range's per-run flight archives when the spec
	// requested archiving and the worker collected them (CollectArchives).
	// The coordinator stores the files durably and strips this field before
	// journaling — bulk archive bytes never enter the journal.
	Archives []RunArchive `json:"archives,omitempty"`
}

// AppendShard appends sh as encoding/json writes it. Observations go
// through AppendObservation; a streamed aggregate and shipped archives,
// one of each per lease at most, keep encoding/json.
func AppendShard(e *wire.Encoder, sh *Shard) {
	e.Raw(`{"start":`)
	e.Int(int64(sh.Start))
	e.Raw(`,"end":`)
	e.Int(int64(sh.End))
	if len(sh.Observations) > 0 {
		e.Raw(`,"observations":`)
		wire.AppendArray(e, sh.Observations, AppendObservation)
	}
	if sh.Aggregate != nil {
		e.Raw(`,"aggregate":`)
		e.Marshal(sh.Aggregate)
	}
	if len(sh.Archives) > 0 {
		e.Raw(`,"archives":`)
		e.Marshal(sh.Archives)
	}
	e.Raw("}")
}

// ParseShard reads into the zero sh one shard as AppendShard writes it,
// any member of which may be left out. The aggregate and the archives
// decode by encoding/json's rules.
func ParseShard(p *wire.Parser, sh *Shard) {
	p.Object()
	if p.Field(`"start":`) {
		sh.Start = p.Int()
	}
	if p.Field(`"end":`) {
		sh.End = p.Int()
	}
	if p.Field(`"observations":`) {
		sh.Observations = wire.ParseArray(p, ParseObservation)
		p.Omitempty(len(sh.Observations) == 0)
	}
	if p.Field(`"aggregate":`) {
		p.Omitempty(p.Null())
		sh.Aggregate = &Aggregate{}
		p.Unmarshal(sh.Aggregate)
	}
	if p.Field(`"archives":`) {
		p.Unmarshal(&sh.Archives)
		p.Omitempty(len(sh.Archives) == 0)
	}
	p.End()
}

// RunShard executes the run range [start, end) of the campaign and returns
// its observations unfolded: their one consumer folds them (Run, a
// streaming fleet worker or a retaining coordinator). Every observation is
// identical to what Run would produce for the same run index — per-run
// seeds depend only on (Seed, run) — so a sharded campaign reassembles
// exactly.
func RunShard(spec Spec, start, end int) (*Shard, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if start < 0 || end > spec.Runs || start > end {
		return nil, fmt.Errorf("campaign: shard [%d, %d) outside run space [0, %d)", start, end, spec.Runs)
	}
	pre, err := buildPrefix(spec)
	if err != nil {
		return nil, err
	}
	sh := &Shard{Start: start, End: end, Observations: runRange(spec, start, end, pre)}
	pre.close()
	return sh, nil
}

// runRange executes runs [start, end) over a pool of spec.Workers
// goroutines (clamped to the range size) and returns the observations in
// run order. spec must be defaulted and validated.
func runRange(spec Spec, start, end int, pre *prefix) []Observation {
	observations := make([]Observation, end-start)
	workers := spec.Workers
	if n := end - start; workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range jobs {
				observations[run-start] = runOne(spec, run, pre)
				if spec.OnObservation != nil {
					spec.OnObservation(observations[run-start])
				}
			}
		}()
	}
	for i := start; i < end; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return observations
}

func scenarioNames(matrix []Scenario) []string {
	names := make([]string, len(matrix))
	for i, sc := range matrix {
		names[i] = sc.Name
	}
	return names
}

// prefix is a campaign's shared fault-free warm-up: one module ticked
// through PrefixMTFs major time frames and snapshotted at a quiescent
// point. Worker goroutines fork it concurrently (Snapshot.Fork is read-only
// on the parent).
type prefix struct {
	parent *core.Module
	snap   *core.Snapshot
}

func (p *prefix) close() {
	if p != nil {
		p.parent.Shutdown()
	}
}

// buildPrefix simulates the shared prefix once and snapshots it. The target
// is the last tick of the PrefixMTFs-th major time frame — the scenario's
// periodic work for the frame has completed and the next releases sit on
// the frame boundary — stepping a few extra ticks if that instant happens
// not to be quiescent, so the snapshot tick is still deterministic. Returns
// nil when the spec does not request prefix sharing.
func buildPrefix(spec Spec) (*prefix, error) {
	if !spec.ForkPrefix {
		return nil, nil
	}
	m, err := newModule(spec, nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: prefix: %w", err)
	}
	if err := m.Start(); err != nil {
		m.Shutdown()
		return nil, fmt.Errorf("campaign: prefix: %w", err)
	}
	mtf := model.Fig8System().Schedules[0].MTF
	if err := m.Run(tick.Ticks(spec.PrefixMTFs)*mtf - 1); err != nil {
		m.Shutdown()
		return nil, fmt.Errorf("campaign: prefix: %w", err)
	}
	var snap *core.Snapshot
	for tries := tick.Ticks(0); ; tries++ {
		snap, err = m.Snapshot()
		if err == nil {
			break
		}
		if tries >= mtf {
			m.Shutdown()
			return nil, fmt.Errorf("campaign: prefix never quiescent: %w", err)
		}
		if err := m.Step(); err != nil {
			m.Shutdown()
			return nil, fmt.Errorf("campaign: prefix: %w", err)
		}
	}
	return &prefix{parent: m, snap: snap}, nil
}

// newModule builds the satellite module a from-zero run or the shared
// prefix ticks: the run's faults, the spec's recovery policy and trace
// capacity, and batched observability.
func newModule(spec Spec, faults []workload.FaultSpec) (*core.Module, error) {
	cfg := workload.Config(workload.Options{
		Faults:        faults,
		Recovery:      spec.Recovery,
		TraceCapacity: spec.TraceCapacity,
	})
	cfg.BatchObs = true
	return core.NewModule(cfg)
}

// runOne executes one simulation. It never panics: application faults are
// contained by the module itself, and anything escaping (a kernel-side
// defect, an out-of-memory in trace collection) is recovered into a
// degraded observation after the module's goroutines are reaped.
func runOne(spec Spec, run int, pre *prefix) (ob Observation) {
	r := newRunRNG(spec.Seed, run)
	scenario := pickScenario(spec.Matrix, r)
	faults := make([]workload.FaultSpec, len(scenario.Faults))
	for i, fr := range scenario.Faults {
		faults[i] = workload.FaultSpec{
			Kind:      fr.Kind,
			Partition: fr.Partition,
			Deadline:  r.draw(fr.Deadline),
			Magnitude: r.draw(fr.Magnitude),
			Period:    r.draw(fr.Period),
			Phase:     r.draw(fr.Phase),
		}
	}
	ob = Observation{
		Run:      run,
		Seed:     runSeed(spec.Seed, run),
		Scenario: scenario.Name,
		Faults:   describeFaults(faults),
	}
	start := spec.Clock()
	defer func() {
		ob.WallNanos = spec.Clock().Sub(start).Nanoseconds()
		if rec := recover(); rec != nil {
			ob.Degraded = true
			ob.Error = fmt.Sprintf("panic: %v", rec)
		}
	}()

	var asink *archive.Sink
	var err error
	if spec.ArchiveDir != "" {
		asink, err = archive.Open(RunDir(spec.ArchiveDir, run), archive.Options{})
		if err != nil {
			ob.Degraded = true
			ob.Error = err.Error()
			return ob
		}
		defer func() {
			if err := asink.Close(); err != nil && ob.Error == "" {
				ob.Degraded = true
				ob.Error = err.Error()
			}
		}()
	}
	// A fork resumes the shared prefix and gets its faults injected; a
	// from-zero run builds its module with them and starts it.
	var m *core.Module
	if pre != nil {
		m, err = pre.snap.Fork()
	} else {
		m, err = newModule(spec, faults)
	}
	if err != nil {
		ob.Degraded = true
		ob.Error = err.Error()
		return ob
	}
	defer m.Shutdown()
	// The timeliness analyzer rides the module's observability spine,
	// attached before the module begins so that initialization-time process
	// releases and injector starts are seen; in fork mode it covers only the
	// post-prefix suffix. The archive sink attaches at the same instant, so
	// its stream and the timeline describe the same window.
	tl := timeline.Attach(m.Bus(), timeline.Options{System: model.Fig8System()})
	if asink != nil {
		m.Bus().Attach(asink)
	}
	if pre != nil {
		err = workload.InjectFaults(m, workload.Options{Faults: faults})
	} else {
		err = m.Start()
	}
	if err != nil {
		ob.Degraded = true
		ob.Error = err.Error()
		collect(m, &ob, faults, tl)
		return ob
	}
	// Both paths tick the module to MTFs major time frames of total
	// simulated time, in MTF-sized chunks between watchdog checks. A fork
	// resumes mid-campaign, so its remaining budget is the difference.
	mtf := model.Fig8System().Schedules[0].MTF
	remaining := tick.Ticks(spec.MTFs)*mtf - m.Now()
	for i := 0; remaining > 0; i++ {
		if spec.Watchdog > 0 && spec.Clock().Sub(start) > spec.Watchdog {
			ob.Degraded = true
			ob.Error = fmt.Sprintf("watchdog: run exceeded %v after %d MTFs", spec.Watchdog, i)
			break
		}
		chunk := mtf
		if chunk > remaining {
			chunk = remaining
		}
		if err := m.Run(chunk); err != nil {
			ob.Degraded = true
			ob.Error = err.Error()
			break
		}
		remaining -= chunk
		if m.Halted() {
			break
		}
	}
	collect(m, &ob, faults, tl)
	return ob
}

// fold reads the run's metrics snapshot into the observation. The
// trace-derived counters come from the spine's monotonic registry rather
// than a walk over the bounded trace ring, so they are exact even when the
// ring overflowed.
func (ob *Observation) fold(snap obs.Snapshot) {
	ob.Metrics = snap
	ob.DetectedMisses = int(snap.CountKind(obs.KindDeadlineMiss))
	ob.DetectionLatencySum = int64(snap.DetectionLatency.Sum)
	ob.DetectionLatencyMax = int64(snap.DetectionLatency.Max)
	ob.Counters = countersOf(&snap)
}

// collect folds the module's health-monitoring log and its observability
// metrics snapshot into the observation.
func collect(m *core.Module, ob *Observation, faults []workload.FaultSpec, tl *timeline.Timeline) {
	ob.Ticks = int64(m.Now())
	ob.Halted = m.Halted()
	ob.Timeline = tl.Snapshot()
	// The HM's monotonic per-code counter survives log truncation, unlike a
	// walk over the DefaultMaxLog-bounded event slice below.
	ob.DeadlineMisses = int(m.Health().Reported(hm.ErrDeadlineMissed))
	ob.HMByLevel = map[string]int{}
	ob.HMByCode = map[string]int{}
	ob.HMByFaultKind = map[string]int{}
	targets := make(map[model.PartitionName]bool, len(faults))
	for _, f := range faults {
		targets[f.Target()] = true
	}
	ob.Contained = true
	for _, e := range m.Health().Events() {
		ob.HMByLevel[e.Level.String()]++
		ob.HMByCode[e.Code.String()]++
		if k, ok := attributeEvent(e); ok {
			ob.HMByFaultKind[k.String()]++
		}
		// Confinement verdict: an HM event on a partition no fault targets
		// means the injected error propagated across a partition boundary.
		if e.Partition != "" && !targets[e.Partition] {
			ob.Contained = false
		}
	}
	ob.fold(m.Metrics())
}

// attributeEvent maps an HM event back to the fault class that provoked it:
// by injector process name for process-level errors, and by error code for
// the partition-level reports that carry no process attribution — memory
// violations and liveness-watchdog hang detections, which in this workload
// only their respective injectors produce.
func attributeEvent(e hm.Event) (workload.FaultKind, bool) {
	switch e.Code {
	case hm.ErrMemoryViolation:
		return workload.FaultMemoryViolation, true
	case hm.ErrPartitionHang:
		return workload.FaultPartitionHang, true
	}
	if e.Process != "" {
		return workload.FaultKindForProcess(e.Process)
	}
	return 0, false
}

func describeFaults(faults []workload.FaultSpec) []FaultDraw {
	out := make([]FaultDraw, len(faults))
	for i, f := range faults {
		out[i] = FaultDraw{
			Kind:      f.Kind.String(),
			Partition: string(f.Partition),
			Deadline:  int64(f.Deadline),
			Magnitude: int64(f.Magnitude),
			Period:    int64(f.Period),
			Phase:     int64(f.Phase),
		}
	}
	return out
}
