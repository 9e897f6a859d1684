package campaign

import (
	"bytes"
	"encoding/json"
	"slices"
	"time"

	"air/internal/obs"
	"air/internal/timeline"
	"air/internal/wire"
)

// Observation is the structured outcome of one simulation run. All fields
// serialized to JSON are deterministic functions of (seed, run index,
// matrix); wall-clock timing is collected but excluded from serialization
// so campaign artifacts stay byte-identical across repetitions.
type Observation struct {
	Run      int    `json:"run"`
	Seed     uint64 `json:"seed"`
	Scenario string `json:"scenario"`
	// Faults records the resolved parameter draws injected into this run.
	Faults []FaultDraw `json:"faults"`
	// Ticks is the module clock at the end of the run.
	Ticks int64 `json:"ticks"`
	// Halted reports a module-level halt (HM shutdown action).
	Halted bool `json:"halted,omitempty"`
	// Degraded marks a run that crashed, errored or tripped the watchdog;
	// Error carries the cause. Degraded runs still contribute whatever was
	// observed before the failure.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// DeadlineMisses counts DEADLINE_MISSED health-monitoring events;
	// DetectedMisses counts the DEADLINE_MISS spine events carrying
	// detection latencies. Both come from monotonic sources (HM log,
	// metrics registry), so neither is bounded by trace-ring retention.
	DeadlineMisses int `json:"deadlineMisses"`
	DetectedMisses int `json:"detectedMisses,omitempty"`
	// DetectionLatencySum/Max aggregate the deadline-violation detection
	// latency (ticks from deadline instant to PAL detection, Sect. 5/6).
	DetectionLatencySum int64 `json:"detectionLatencySum,omitempty"`
	DetectionLatencyMax int64 `json:"detectionLatencyMax,omitempty"`
	// HMByLevel/HMByCode histogram the health-monitoring log; HMByFaultKind
	// attributes events to the injected fault class that provoked them.
	HMByLevel     map[string]int `json:"hmByLevel"`
	HMByCode      map[string]int `json:"hmByCode"`
	HMByFaultKind map[string]int `json:"hmByFaultKind"`
	// Counters holds the run's restart and recovery counters, read off
	// Metrics.
	Counters
	// Contained reports error confinement: every HM event of the run lies
	// on a partition targeted by an injected fault (vacuously true for the
	// fault-free baseline).
	Contained bool `json:"contained"`
	// Metrics is the run's full spine snapshot: per-kind event counters
	// plus detection-latency and window-gap histograms (internal/obs).
	Metrics obs.Snapshot `json:"metrics"`
	// Timeline is the run's derived timeliness state (internal/timeline):
	// response/jitter/slack histograms, partition supply accounting, early
	// warnings and live model-check verdicts.
	Timeline timeline.Snapshot `json:"timeline"`
	// WallNanos is the run's wall-clock duration — nondeterministic, kept
	// out of the serialized artifact.
	WallNanos int64 `json:"-"`
}

// FaultDraw is the serialized form of one resolved fault injection (zero
// parameters mean "per-kind default", resolved inside the workload).
type FaultDraw struct {
	Kind      string `json:"kind"`
	Partition string `json:"partition,omitempty"`
	Deadline  int64  `json:"deadlineTicks,omitempty"`
	Magnitude int64  `json:"magnitude,omitempty"`
	Period    int64  `json:"periodTicks,omitempty"`
	Phase     int64  `json:"phaseTicks,omitempty"`
}

// Counters are the restart and recovery counters of a run or of a class of
// runs. Each is a function of the level's metrics snapshot (countersOf), so
// a level reads them off the snapshot it accumulated instead of summing
// them on their own.
type Counters struct {
	// Recovery actions: partition and process restarts, schedule switches.
	PartitionRestarts int `json:"partitionRestarts,omitempty"`
	ProcessRestarts   int `json:"processRestarts,omitempty"`
	ScheduleSwitches  int `json:"scheduleSwitches,omitempty"`
	// Recovery-orchestration effectiveness (internal/recovery): deferred
	// restarts, quarantine entries, lifted quarantines (each carrying an
	// MTTR — ticks from quarantine entry to the healthy probe), ticks spent
	// in safe-mode schedules and nominal-schedule restores. All zero when
	// the campaign runs without a recovery policy.
	RestartsDeferred int   `json:"restartsDeferred,omitempty"`
	Quarantines      int   `json:"quarantines,omitempty"`
	Recoveries       int   `json:"recoveries,omitempty"`
	MTTRSum          int64 `json:"mttrSum,omitempty"`
	MTTRMax          int64 `json:"mttrMax,omitempty"`
	TicksDegraded    int64 `json:"ticksDegraded,omitempty"`
	ScheduleRestores int   `json:"scheduleRestores,omitempty"`
}

// countersOf reads the counters off a metrics snapshot: the one mapping
// from spine event kinds and histograms to counters.
func countersOf(s *obs.Snapshot) Counters {
	n := func(k obs.Kind) int { return int(s.CountKind(k)) }
	return Counters{
		PartitionRestarts: n(obs.KindPartitionRestart),
		ProcessRestarts:   n(obs.KindProcessRestarted),
		ScheduleSwitches:  n(obs.KindScheduleSwitch),
		RestartsDeferred:  n(obs.KindRestartDeferred),
		Quarantines:       n(obs.KindQuarantineEnter),
		Recoveries:        n(obs.KindQuarantineExit),
		MTTRSum:           int64(s.MTTR.Sum),
		MTTRMax:           int64(s.MTTR.Max),
		TicksDegraded:     int64(s.DegradedTicks.Sum),
		ScheduleRestores:  n(obs.KindScheduleRestore),
	}
}

// ClassAgg accumulates the observations of one class of runs (a scenario or
// a fault kind).
type ClassAgg struct {
	Runs           int `json:"runs"`
	Degraded       int `json:"degraded,omitempty"`
	Halted         int `json:"halted,omitempty"`
	DeadlineMisses int `json:"deadlineMisses"`
	HMEvents       int `json:"hmEvents"`
	// Counters are read off Metrics after every merge.
	Counters
	// ContainedRuns counts the class's runs whose HM activity stayed on
	// fault-target partitions.
	ContainedRuns int `json:"containedRuns"`
	// Metrics sums the class's per-run spine snapshots; dividing by Runs
	// (or subtracting another class's per-run mean) yields the
	// per-fault-class counter deltas reported by aircampaign -metrics.
	Metrics obs.Snapshot `json:"metrics"`
	// Timeline merges the class's per-run timeliness snapshots.
	Timeline timeline.Snapshot `json:"timeline"`
}

// Aggregate is the campaign-wide fold of all observations.
type Aggregate struct {
	Runs     int   `json:"runs"`
	Degraded int   `json:"degraded"`
	Halted   int   `json:"halted"`
	Ticks    int64 `json:"ticks"`

	DeadlineMisses       int     `json:"deadlineMisses"`
	DetectionLatencyMean float64 `json:"detectionLatencyMean"`
	DetectionLatencyMax  int64   `json:"detectionLatencyMax"`

	HMEvents      int            `json:"hmEvents"`
	HMByLevel     map[string]int `json:"hmByLevel"`
	HMByCode      map[string]int `json:"hmByCode"`
	HMByFaultKind map[string]int `json:"hmByFaultKind"`

	PartitionRestarts int `json:"partitionRestarts"`
	ProcessRestarts   int `json:"processRestarts"`
	ScheduleSwitches  int `json:"scheduleSwitches"`

	// Recovery-orchestration effectiveness across the whole campaign:
	// MTTRMean is the mean quarantine duration over all Recoveries (0 when
	// nothing recovered); ContainedRuns counts runs whose HM activity
	// stayed on fault-target partitions.
	RestartsDeferred int     `json:"restartsDeferred"`
	Quarantines      int     `json:"quarantines"`
	Recoveries       int     `json:"recoveries"`
	MTTRMean         float64 `json:"mttrMean"`
	MTTRMax          int64   `json:"mttrMax"`
	TicksDegraded    int64   `json:"ticksDegraded"`
	ScheduleRestores int     `json:"scheduleRestores"`
	ContainedRuns    int     `json:"containedRuns"`

	// Metrics is the campaign-wide sum of every run's spine snapshot.
	Metrics obs.Snapshot `json:"metrics"`

	// Timeline merges every run's timeliness snapshot; the scalar fields
	// below lift its headline quantiles into the report:
	// response-time p50/p99/max (ticks), the worst completion slack seen
	// anywhere in the campaign, early-warning counts and the mean/max lead
	// time from slack warning to PAL deadline-miss detection, and the
	// number of live scheduling-model checks that failed.
	Timeline             timeline.Snapshot `json:"timeline"`
	ResponseP50          uint64            `json:"responseP50"`
	ResponseP99          uint64            `json:"responseP99"`
	ResponseMax          uint64            `json:"responseMax"`
	WorstSlack           uint64            `json:"worstSlack"`
	EarlyWarnings        uint64            `json:"earlyWarnings"`
	EarlyWarningLeadMean float64           `json:"earlyWarningLeadMean"`
	EarlyWarningLeadMax  uint64            `json:"earlyWarningLeadMax"`
	ModelViolations      uint64            `json:"modelViolations"`

	ByScenario  map[string]*ClassAgg `json:"byScenario"`
	ByFaultKind map[string]*ClassAgg `json:"byFaultKind"`
}

// Timing carries the campaign's wall-clock throughput. It is informational
// and nondeterministic: excluded from Result serialization.
type Timing struct {
	Workers        int
	Elapsed        time.Duration
	Ticks          int64
	TicksPerSecond float64
}

// Result is the complete campaign artifact.
type Result struct {
	Seed         uint64        `json:"seed"`
	Runs         int           `json:"runs"`
	MTFs         int           `json:"mtfsPerRun"`
	Scenarios    []string      `json:"scenarios"`
	Observations []Observation `json:"observations"`
	Aggregate    Aggregate     `json:"aggregate"`
	// Timing is wall-clock throughput, excluded from JSON (see Timing).
	Timing *Timing `json:"-"`
}

// JSON serializes the result deterministically (map keys sorted by
// encoding/json, observations ordered by run index, no timing fields) as
// json.MarshalIndent(r, "", "  ") and a newline. It encodes each field and
// observation on its own, once to size the artifact and once into a buffer
// of that size: one large allocation, where MarshalIndent makes several.
func (r *Result) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	walk := func(write func([]byte)) (err error) {
		encode := func(sep string, v any, prefix string) {
			buf.Reset()
			enc.SetIndent(prefix, "  ")
			if err == nil {
				err = enc.Encode(v)
			}
			write([]byte(sep))
			write(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
		}
		encode("{\n  \"seed\": ", r.Seed, "  ")
		encode(",\n  \"runs\": ", r.Runs, "  ")
		encode(",\n  \"mtfsPerRun\": ", r.MTFs, "  ")
		encode(",\n  \"scenarios\": ", r.Scenarios, "  ")
		if len(r.Observations) == 0 {
			encode(",\n  \"observations\": ", r.Observations, "  ") // null or []
		} else {
			sep := ",\n  \"observations\": [\n    "
			for i := range r.Observations {
				encode(sep, &r.Observations[i], "    ")
				sep = ",\n    "
			}
			write([]byte("\n  ]"))
		}
		encode(",\n  \"aggregate\": ", &r.Aggregate, "  ")
		write([]byte("\n}\n"))
		return err
	}
	size := 0
	if err := walk(func(b []byte) { size += len(b) }); err != nil {
		return nil, err
	}
	out := make([]byte, 0, size)
	err := walk(func(b []byte) { out = append(out, b...) })
	return out, err
}

// NewAggregate returns an empty aggregate ready for incremental folding.
// Build campaign-wide state by calling Fold for each observation in run
// order, or by merging per-shard aggregates in shard order (Merge); the two
// paths produce byte-identical results for any contiguous partitioning of
// the run space (TestFoldMergePartitioning).
func NewAggregate() Aggregate {
	return Aggregate{
		HMByLevel:     map[string]int{},
		HMByCode:      map[string]int{},
		HMByFaultKind: map[string]int{},
		ByScenario:    map[string]*ClassAgg{},
		ByFaultKind:   map[string]*ClassAgg{},
	}
}

// init makes the zero Aggregate usable as a fold target, so aggregates
// deserialized from JSON (whose empty maps decode to nil) fold safely.
func (a *Aggregate) init() {
	if a.HMByLevel == nil {
		a.HMByLevel = map[string]int{}
	}
	if a.HMByCode == nil {
		a.HMByCode = map[string]int{}
	}
	if a.HMByFaultKind == nil {
		a.HMByFaultKind = map[string]int{}
	}
	if a.ByScenario == nil {
		a.ByScenario = map[string]*ClassAgg{}
	}
	if a.ByFaultKind == nil {
		a.ByFaultKind = map[string]*ClassAgg{}
	}
}

// Fold accumulates one observation into the aggregate — the streaming form
// of campaign aggregation, and the one-run form of Merge: the run's totals
// merge into the aggregate, and the run, as a one-run class, into its
// scenario class and each distinct fault-kind class. Observations of one
// aggregate must be folded in run order (merging the campaign's Timeline
// snapshots is order-sensitive in its last-cycle fields); derived means and
// quantiles are recomputed after every fold, so the aggregate is always
// consistent and serializable.
func (a *Aggregate) Fold(o Observation) {
	// Merge and merge only read their argument, so the one-run values share
	// the observation's maps and snapshots.
	run := ClassAgg{
		Runs:           1,
		Degraded:       count(o.Degraded),
		Halted:         count(o.Halted),
		DeadlineMisses: o.DeadlineMisses,
		HMEvents:       hmTotal(o.HMByLevel),
		ContainedRuns:  count(o.Contained),
		Metrics:        o.Metrics,
		Timeline:       o.Timeline,
	}
	a.Merge(Aggregate{
		Runs:           run.Runs,
		Degraded:       run.Degraded,
		Halted:         run.Halted,
		Ticks:          o.Ticks,
		DeadlineMisses: run.DeadlineMisses,
		HMEvents:       run.HMEvents,
		HMByLevel:      o.HMByLevel,
		HMByCode:       o.HMByCode,
		HMByFaultKind:  o.HMByFaultKind,
		ContainedRuns:  run.ContainedRuns,
		Metrics:        o.Metrics,
		Timeline:       o.Timeline,
	})
	classFor(a.ByScenario, o.Scenario).merge(&run)
	for i, f := range o.Faults {
		if slices.ContainsFunc(o.Faults[:i], func(g FaultDraw) bool { return g.Kind == f.Kind }) {
			continue
		}
		run.HMEvents = o.HMByFaultKind[f.Kind]
		classFor(a.ByFaultKind, f.Kind).merge(&run)
	}
}

// Merge folds another aggregate into this one — the shard-combination form
// of campaign aggregation. If a covers runs [0, k) and b covers [k, n), the
// merged aggregate is byte-identical to folding all n observations into one
// aggregate. Merges must be applied in run order (a's runs strictly precede
// b's); the fleet coordinator guarantees this by merging lease partials in
// lease order. Merge only reads b, and takes no counter from it: the
// merged counters are read off the merged metrics.
func (a *Aggregate) Merge(b Aggregate) {
	a.init()
	a.Runs += b.Runs
	a.Degraded += b.Degraded
	a.Halted += b.Halted
	a.Ticks += b.Ticks
	a.DeadlineMisses += b.DeadlineMisses
	a.HMEvents += b.HMEvents
	for k, v := range b.HMByLevel {
		a.HMByLevel[k] += v
	}
	for k, v := range b.HMByCode {
		a.HMByCode[k] += v
	}
	for k, v := range b.HMByFaultKind {
		a.HMByFaultKind[k] += v
	}
	a.ContainedRuns += b.ContainedRuns
	a.Metrics.Accumulate(&b.Metrics)
	a.Timeline.Accumulate(&b.Timeline)
	for name, c := range b.ByScenario {
		classFor(a.ByScenario, name).merge(c)
	}
	for name, c := range b.ByFaultKind {
		classFor(a.ByFaultKind, name).merge(c)
	}
	a.derive()
}

// derive recomputes the aggregate's counters, means and quantiles from its
// accumulated metrics and timeline. Every input is an integer total or a
// maximum, so the derived values depend only on what was folded, never on
// how the folds were partitioned into shards.
//
// The counters, the detection-latency maximum and mean and the MTTR mean
// come out of the spine's metrics histograms rather than dedicated
// accumulators: the registry observes exactly one detection latency per
// DEADLINE_MISS event and one quarantine duration per QUARANTINE_EXIT
// event.
func (a *Aggregate) derive() {
	c := countersOf(&a.Metrics)
	a.PartitionRestarts = c.PartitionRestarts
	a.ProcessRestarts = c.ProcessRestarts
	a.ScheduleSwitches = c.ScheduleSwitches
	a.RestartsDeferred = c.RestartsDeferred
	a.Quarantines = c.Quarantines
	a.Recoveries = c.Recoveries
	a.MTTRMax = c.MTTRMax
	a.TicksDegraded = c.TicksDegraded
	a.ScheduleRestores = c.ScheduleRestores
	a.MTTRMean = 0
	if c.Recoveries > 0 {
		a.MTTRMean = float64(c.MTTRSum) / float64(c.Recoveries)
	}
	a.DetectionLatencyMax = int64(a.Metrics.DetectionLatency.Max)
	a.DetectionLatencyMean = 0
	if n := a.Metrics.DetectionLatency.Count; n > 0 {
		a.DetectionLatencyMean = float64(a.Metrics.DetectionLatency.Sum) / float64(n)
	}
	a.ResponseP50 = a.Timeline.Response.Quantile(0.5)
	a.ResponseP99 = a.Timeline.Response.Quantile(0.99)
	a.ResponseMax = a.Timeline.Response.Max
	a.WorstSlack, _ = a.Timeline.WorstSlack()
	a.EarlyWarnings = a.Timeline.EarlyWarnings
	a.EarlyWarningLeadMean = a.Timeline.EarlyWarningLead.Mean
	a.EarlyWarningLeadMax = a.Timeline.EarlyWarningLead.Max
	a.ModelViolations = a.Timeline.ModelViolations
}

// Fold folds observations, given in run order, into a new aggregate.
func Fold(observations []Observation) Aggregate {
	agg := NewAggregate()
	for i := range observations {
		agg.Fold(observations[i])
	}
	return agg
}

func classFor(m map[string]*ClassAgg, key string) *ClassAgg {
	if c, ok := m[key]; ok {
		return c
	}
	c := &ClassAgg{}
	m[key] = c
	return c
}

// merge folds another class accumulator into this one (the ClassAgg form of
// Aggregate.Merge; same run-order requirement). It only reads o.
func (c *ClassAgg) merge(o *ClassAgg) {
	c.Runs += o.Runs
	c.Degraded += o.Degraded
	c.Halted += o.Halted
	c.DeadlineMisses += o.DeadlineMisses
	c.HMEvents += o.HMEvents
	c.ContainedRuns += o.ContainedRuns
	c.Metrics.Accumulate(&o.Metrics)
	c.Timeline.Accumulate(&o.Timeline)
	c.Counters = countersOf(&c.Metrics)
}

func hmTotal(byLevel map[string]int) int {
	n := 0
	for _, v := range byLevel {
		n += v
	}
	return n
}

// count is 1 for a run that has the property, 0 for one that has not.
func count(b bool) int {
	if b {
		return 1
	}
	return 0
}

// AppendObservation appends o as encoding/json writes it: the form a fleet
// completion and its journal record carry each retained run in.
func AppendObservation(e *wire.Encoder, o *Observation) {
	e.Raw(`{"run":`)
	e.Int(int64(o.Run))
	e.Raw(`,"seed":`)
	e.Uint(o.Seed)
	e.Raw(`,"scenario":`)
	e.Str(o.Scenario)
	e.Raw(`,"faults":`)
	wire.AppendArray(e, o.Faults, appendFaultDraw)
	e.Raw(`,"ticks":`)
	e.Int(o.Ticks)
	if o.Halted {
		e.Raw(`,"halted":true`)
	}
	if o.Degraded {
		e.Raw(`,"degraded":true`)
	}
	if o.Error != "" {
		e.Raw(`,"error":`)
		e.Str(o.Error)
	}
	e.Raw(`,"deadlineMisses":`)
	e.Int(int64(o.DeadlineMisses))
	e.OmitemptyInt(`,"detectedMisses":`, int64(o.DetectedMisses))
	e.OmitemptyInt(`,"detectionLatencySum":`, o.DetectionLatencySum)
	e.OmitemptyInt(`,"detectionLatencyMax":`, o.DetectionLatencyMax)
	e.Raw(`,"hmByLevel":`)
	e.IntMap(o.HMByLevel)
	e.Raw(`,"hmByCode":`)
	e.IntMap(o.HMByCode)
	e.Raw(`,"hmByFaultKind":`)
	e.IntMap(o.HMByFaultKind)
	e.OmitemptyInt(`,"partitionRestarts":`, int64(o.PartitionRestarts))
	e.OmitemptyInt(`,"processRestarts":`, int64(o.ProcessRestarts))
	e.OmitemptyInt(`,"scheduleSwitches":`, int64(o.ScheduleSwitches))
	e.OmitemptyInt(`,"restartsDeferred":`, int64(o.RestartsDeferred))
	e.OmitemptyInt(`,"quarantines":`, int64(o.Quarantines))
	e.OmitemptyInt(`,"recoveries":`, int64(o.Recoveries))
	e.OmitemptyInt(`,"mttrSum":`, o.MTTRSum)
	e.OmitemptyInt(`,"mttrMax":`, o.MTTRMax)
	e.OmitemptyInt(`,"ticksDegraded":`, o.TicksDegraded)
	e.OmitemptyInt(`,"scheduleRestores":`, int64(o.ScheduleRestores))
	e.Raw(`,"contained":`)
	e.Bool(o.Contained)
	e.Raw(`,"metrics":`)
	obs.AppendSnapshot(e, &o.Metrics)
	e.Raw(`,"timeline":`)
	timeline.AppendSnapshot(e, &o.Timeline)
	e.Raw("}")
}

func appendFaultDraw(e *wire.Encoder, f *FaultDraw) {
	e.Raw(`{"kind":`)
	e.Str(f.Kind)
	if f.Partition != "" {
		e.Raw(`,"partition":`)
		e.Str(f.Partition)
	}
	e.OmitemptyInt(`,"deadlineTicks":`, f.Deadline)
	e.OmitemptyInt(`,"magnitude":`, f.Magnitude)
	e.OmitemptyInt(`,"periodTicks":`, f.Period)
	e.OmitemptyInt(`,"phaseTicks":`, f.Phase)
	e.Raw("}")
}

// ParseObservation reads into the zero o one observation as
// AppendObservation writes it, any member of which may be left out.
func ParseObservation(p *wire.Parser, o *Observation) {
	p.Object()
	if p.Field(`"run":`) {
		o.Run = p.Int()
	}
	if p.Field(`"seed":`) {
		o.Seed = p.Uint64()
	}
	if p.Field(`"scenario":`) {
		o.Scenario = p.Str()
	}
	if p.Field(`"faults":`) {
		o.Faults = wire.ParseArray(p, parseFaultDraw)
	}
	if p.Field(`"ticks":`) {
		o.Ticks = p.Int64()
	}
	if p.Field(`"halted":`) {
		o.Halted = p.True()
	}
	if p.Field(`"degraded":`) {
		o.Degraded = p.True()
	}
	if p.Field(`"error":`) {
		o.Error = p.NonemptyStr()
	}
	if p.Field(`"deadlineMisses":`) {
		o.DeadlineMisses = p.Int()
	}
	if p.Field(`"detectedMisses":`) {
		o.DetectedMisses = p.NonzeroInt()
	}
	if p.Field(`"detectionLatencySum":`) {
		o.DetectionLatencySum = p.NonzeroInt64()
	}
	if p.Field(`"detectionLatencyMax":`) {
		o.DetectionLatencyMax = p.NonzeroInt64()
	}
	if p.Field(`"hmByLevel":`) {
		o.HMByLevel = p.IntMap()
	}
	if p.Field(`"hmByCode":`) {
		o.HMByCode = p.IntMap()
	}
	if p.Field(`"hmByFaultKind":`) {
		o.HMByFaultKind = p.IntMap()
	}
	if p.Field(`"partitionRestarts":`) {
		o.PartitionRestarts = p.NonzeroInt()
	}
	if p.Field(`"processRestarts":`) {
		o.ProcessRestarts = p.NonzeroInt()
	}
	if p.Field(`"scheduleSwitches":`) {
		o.ScheduleSwitches = p.NonzeroInt()
	}
	if p.Field(`"restartsDeferred":`) {
		o.RestartsDeferred = p.NonzeroInt()
	}
	if p.Field(`"quarantines":`) {
		o.Quarantines = p.NonzeroInt()
	}
	if p.Field(`"recoveries":`) {
		o.Recoveries = p.NonzeroInt()
	}
	if p.Field(`"mttrSum":`) {
		o.MTTRSum = p.NonzeroInt64()
	}
	if p.Field(`"mttrMax":`) {
		o.MTTRMax = p.NonzeroInt64()
	}
	if p.Field(`"ticksDegraded":`) {
		o.TicksDegraded = p.NonzeroInt64()
	}
	if p.Field(`"scheduleRestores":`) {
		o.ScheduleRestores = p.NonzeroInt()
	}
	if p.Field(`"contained":`) {
		o.Contained = p.Bool()
	}
	if p.Field(`"metrics":`) {
		obs.ParseSnapshot(p, &o.Metrics)
	}
	if p.Field(`"timeline":`) {
		timeline.ParseSnapshot(p, &o.Timeline)
	}
	p.End()
}

func parseFaultDraw(p *wire.Parser, f *FaultDraw) {
	p.Object()
	if p.Field(`"kind":`) {
		f.Kind = p.Str()
	}
	if p.Field(`"partition":`) {
		f.Partition = p.NonemptyStr()
	}
	if p.Field(`"deadlineTicks":`) {
		f.Deadline = p.NonzeroInt64()
	}
	if p.Field(`"magnitude":`) {
		f.Magnitude = p.NonzeroInt64()
	}
	if p.Field(`"periodTicks":`) {
		f.Period = p.NonzeroInt64()
	}
	if p.Field(`"phaseTicks":`) {
		f.Phase = p.NonzeroInt64()
	}
	p.End()
}
