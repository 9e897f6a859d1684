// Package timeline is the online timeliness analyzer: a sink on the
// observability spine (internal/obs) that derives, while the module runs,
// the temporal quantities an integrator actually verifies — per-process
// response time, jitter and slack histograms, per-partition window
// utilization and supplied-vs-demanded budget accounting checked live
// against the scheduling model (eqs. (14)–(24)), a deadline-miss early
// warning raised when an activation's remaining slack crosses a watermark
// before the PAL/HM detect anything, and a bounded flight-data recorder for
// post-mortem inspection after a Health Monitor error.
//
// The analyzer is allocation-conscious: all per-process and per-partition
// state lives in fixed-shape structs reached through comparable-key map
// lookups (which never allocate), and histograms are fixed log2-bucket
// arrays, so steady-state event consumption performs zero heap allocations
// and the module tick stays on its ~190 ns budget with the analyzer
// subscribed. It is internally synchronized: the telemetry HTTP server and
// cmd/airmon read snapshots concurrently with the simulation.
//
// Derived findings (SLACK_WARNING, MODEL_VIOLATION) are published back onto
// the spine as first-class events, so they reach the module trace ring, the
// JSONL export and the metrics registry like any kernel-emitted record.
package timeline

import (
	"cmp"
	"sort"
	"strings"
	"sync"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
	"air/internal/wire"
)

// Options configures an analyzer.
type Options struct {
	// System supplies the scheduling model the analyzer checks reality
	// against: the initial schedule's requirements seed the per-partition
	// budget contract, and schedule-switch requests re-resolve against it.
	// Nil disables budget/utilization model checking (process timing is
	// still analyzed).
	System *model.System
}

const (
	// warnPercent is the early-warning watermark: a SLACK_WARNING fires
	// when an open activation's remaining slack drops below warnPercent% of
	// its release→deadline window.
	warnPercent = 25
	// flightFrames bounds the flight-data recorder (frames retained, one
	// per partition window activation).
	flightFrames = 64
)

// procKey identifies a process by its fields, as partKey does a partition.
// Names are free-form, so a string joining them could merge or misorder
// rows: process "b/c" of partition "a" and process "c" of partition "a/b".
type procKey struct {
	core int
	part model.PartitionName
	name string
}

// compare orders process keys by (core, partition, process), the order of
// a Snapshot's process rows.
func (k procKey) compare(o procKey) int {
	return cmp.Or(cmp.Compare(k.core, o.core), cmp.Compare(k.part, o.part), strings.Compare(k.name, o.name))
}

// procState is the per-process derived state (one per core×partition×name).
type procState struct {
	key procKey

	open        bool       // an activation is released and not yet completed
	warned      bool       // early warning already raised for this activation
	hasDeadline bool       // the open activation has a finite deadline
	deadline    tick.Ticks // absolute deadline of the open activation
	warnAt      tick.Ticks // instant the slack watermark is crossed
	warnedAt    tick.Ticks // instant the warning was raised

	lastResp tick.Ticks
	hasResp  bool

	releases    uint64
	completions uint64
	misses      uint64
	warnings    uint64

	response hist // completion − nominal release (ticks)
	jitter   hist // |response − previous response|
	slack    hist // deadline − completion (negative clamps to 0)
}

type partKey struct {
	core int
	name model.PartitionName
}

// compare orders partition keys by (core, partition), the order of a
// Snapshot's partition rows.
func (k partKey) compare(o partKey) int {
	return cmp.Or(cmp.Compare(k.core, o.core), cmp.Compare(k.name, o.name))
}

// partState is the per-partition supply accounting (eq. (20) windows vs the
// eq. (19) ⟨P, η, d⟩ contract).
type partState struct {
	key partKey

	active      bool
	windowStart tick.Ticks

	windows       uint64
	supplied      uint64     // total supplied ticks
	suppliedCycle tick.Ticks // supplied in the current activation cycle
	cycleEnd      tick.Ticks // end of the current activation cycle
	lastCycle     tick.Ticks // supplied in the last completed cycle

	cycle      tick.Ticks // contracted cycle η (0 = partition not under contract)
	budget     tick.Ticks // contracted budget d per cycle
	shortfalls uint64
}

// Timeline is the analyzer. Attach it to a module's spine with Attach (or
// bus.Attach plus Bind); it implements obs.Sink.
type Timeline struct {
	mu  sync.Mutex
	sys *model.System
	bus *obs.Bus

	// reg is the analyzer's private metrics registry: a synchronized mirror
	// of the module registry fed from the same event stream, so /metrics
	// can be served concurrently with the simulation without racing the
	// module's unsynchronized counters.
	//air:guard(mu)
	reg obs.Metrics

	//air:guard(mu)
	now tick.Ticks
	//air:guard(mu)
	mtf tick.Ticks
	//air:guard(mu)
	mtfEnd tick.Ticks
	//air:guard(mu)
	schedule string // name of the schedule the contract came from
	//air:guard(mu)
	pending string // requested switch, adopted at the MTF boundary
	//air:guard(mu)
	contract map[model.PartitionName]model.Requirement

	//air:guard(mu)
	parts map[partKey]*partState
	//air:guard(mu)
	partList []*partState
	//air:guard(mu)
	procs map[procKey]*procState
	//air:guard(mu)
	procList []*procState

	//air:guard(mu)
	warnings uint64
	//air:guard(mu)
	violations uint64
	misses     uint64
	lead       hist // early-warning lead: PAL detection instant − warning instant

	fdr *flight

	// archiveStats, when set, is polled at snapshot time for the flight
	// archive's durable-storage gauges (internal/archive is a sibling layer;
	// the cmd composition bridges it in through this seam).
	archiveStats func() ArchiveSnap

	// outbox defers self-emitted events until the mutex is released (the
	// bus delivers them back to this sink re-entrantly). The slice is
	// reused across emissions; it only grows on faulty runs.
	outbox []obs.Event
}

// New creates an analyzer.
func New(opts Options) *Timeline {
	t := &Timeline{
		sys:    opts.System,
		parts:  make(map[partKey]*partState),
		procs:  make(map[procKey]*procState),
		outbox: make([]obs.Event, 0, 8),
		fdr:    newFlight(flightFrames),
	}
	if t.sys != nil && len(t.sys.Schedules) > 0 {
		t.adopt(&t.sys.Schedules[0], 0)
	}
	return t
}

// Attach creates an analyzer, subscribes it to the bus and binds it for
// re-emission of derived events — the one-call integration used by the
// campaign engine and the cmd tools. Attach the analyzer before Module.Start
// so initialization-time releases are seen.
func Attach(bus *obs.Bus, opts Options) *Timeline {
	t := New(opts)
	t.Bind(bus)
	bus.Attach(t)
	return t
}

// Bind sets the bus the analyzer publishes SLACK_WARNING / MODEL_VIOLATION
// events on. A nil bus keeps the findings internal (counters only).
func (t *Timeline) Bind(bus *obs.Bus) {
	t.mu.Lock()
	t.bus = bus
	t.mu.Unlock()
}

// adopt installs a schedule's requirement set as the active contract.
// boundary anchors the cycle accounting (schedules take effect at MTF
// boundaries, so every contracted cycle starts there — η divides the MTF by
// eq. (21)).
//
//air:locked(mu)
func (t *Timeline) adopt(s *model.Schedule, boundary tick.Ticks) {
	t.schedule = s.Name
	t.mtf = s.MTF
	if t.mtfEnd <= boundary {
		t.mtfEnd = boundary + s.MTF
	}
	if t.contract == nil {
		t.contract = make(map[model.PartitionName]model.Requirement, len(s.Requirements))
	} else {
		clear(t.contract)
	}
	for _, q := range s.Requirements {
		t.contract[q.Partition] = q
	}
	for _, ps := range t.partList {
		q, ok := t.contract[ps.key.name]
		if !ok {
			ps.cycle, ps.budget = 0, 0
			continue
		}
		ps.cycle, ps.budget = q.Cycle, q.Budget
		ps.suppliedCycle = 0
		ps.cycleEnd = boundary + q.Cycle
	}
}

// Emit consumes one spine event. Implements obs.Sink.
//
//air:hotpath
func (t *Timeline) Emit(e obs.Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	switch e.Kind {
	case obs.KindSlackWarning, obs.KindModelViolation:
		// Re-entrant delivery of this analyzer's own findings (already
		// accounted when queued).
		t.mu.Unlock()
		return
	}
	t.reg.Observe(e)
	switch e.Kind {
	case obs.KindProcessRelease:
		t.release(e)
	case obs.KindProcessComplete:
		t.complete(e)
	case obs.KindDeadlineMiss:
		t.miss(e)
	case obs.KindWindowActivation:
		t.windowOpen(e)
	case obs.KindPreemption:
		if e.Process == "" { // partition-level preemption: window closes
			t.windowClose(e)
		}
	case obs.KindScheduleSwitch:
		//air:allow(call): schedule switches are rare module-level events; detail parsing is off the per-tick path
		t.pending = obs.ScheduleName(e.Detail)
	case obs.KindHMReport:
		t.fdr.noteError(e)
	}
	t.advance(e.Time)
	if e.Kind == obs.KindWindowActivation {
		t.fdr.capture(t, e)
	}
	// Drain the outbox after releasing the mutex: the bus hands these
	// events straight back to Emit above.
	var out []obs.Event
	if len(t.outbox) > 0 {
		out = t.outbox
	}
	bus := t.bus
	t.mu.Unlock()
	if bus != nil {
		for i := range out {
			bus.Emit(out[i])
		}
	}
	if out != nil {
		t.mu.Lock()
		t.outbox = t.outbox[:0]
		t.mu.Unlock()
	}
}

// queue records a derived finding in the private registry and defers its
// publication until the analyzer's mutex is released.
//
//air:hotpath
//air:allow(alloc): the outbox backing array is retained across drains, so append growth is amortized to the high-water mark
//air:locked(mu)
func (t *Timeline) queue(e obs.Event) {
	t.reg.Observe(e)
	t.outbox = append(t.outbox, e)
}

//air:hotpath
//air:allow(alloc): first-seen process state is created once per process and reused for the run
//air:locked(mu)
func (t *Timeline) procFor(e obs.Event) *procState {
	k := procKey{core: e.Core, part: e.Partition, name: e.Process}
	if st, ok := t.procs[k]; ok {
		return st
	}
	st := &procState{key: k}
	t.procs[k] = st
	t.procList = append(t.procList, st)
	return st
}

//air:hotpath
//air:allow(alloc): first-seen partition state is created once per partition and reused for the run
//air:locked(mu)
func (t *Timeline) partFor(e obs.Event) *partState {
	k := partKey{core: e.Core, name: e.Partition}
	if ps, ok := t.parts[k]; ok {
		return ps
	}
	ps := &partState{key: k}
	if q, ok := t.contract[k.name]; ok && q.Cycle > 0 {
		ps.cycle, ps.budget = q.Cycle, q.Budget
		// Cycles are anchored at t = 0 (schedule adoption re-anchors them
		// at the MTF boundary); the first window of a partition always
		// arrives inside its first cycle.
		ps.cycleEnd = (e.Time/q.Cycle + 1) * q.Cycle
	}
	t.parts[k] = ps
	t.partList = append(t.partList, ps)
	return ps
}

//air:hotpath
//air:locked(mu)
func (t *Timeline) release(e obs.Event) {
	st := t.procFor(e) //air:allow(alloc): procFor's first-seen state allocation, attributed here by inlining
	st.open = true
	st.warned = false
	st.releases++
	st.hasDeadline = e.Latency != 0
	if !st.hasDeadline {
		return
	}
	st.deadline = e.Time + e.Latency
	// Watermark: warn once the remaining slack is below warnPercent% of the
	// announce→deadline window. An activation announced after its deadline
	// (partition held off the processor too long) warns immediately.
	window := e.Latency
	if window < 0 {
		window = 0
	}
	st.warnAt = st.deadline - window*warnPercent/100
}

//air:hotpath
//air:locked(mu)
func (t *Timeline) complete(e obs.Event) {
	st := t.procFor(e) //air:allow(alloc): procFor's first-seen state allocation, attributed here by inlining
	resp := e.Latency
	st.open = false
	st.completions++
	st.response.observe(resp)
	if st.hasResp {
		d := resp - st.lastResp
		if d < 0 {
			d = -d
		}
		st.jitter.observe(d)
	}
	st.lastResp, st.hasResp = resp, true
	if st.hasDeadline {
		st.slack.observe(st.deadline - e.Time)
	}
}

//air:hotpath
//air:locked(mu)
func (t *Timeline) miss(e obs.Event) {
	st := t.procFor(e) //air:allow(alloc): procFor's first-seen state allocation, attributed here by inlining
	st.misses++
	t.misses++
	if st.warned {
		// Early-warning lead time: how far ahead of the PAL/HM detection
		// the watermark crossing was flagged.
		t.lead.observe(e.Time - st.warnedAt)
	}
	st.open = false
	st.warned = false
}

//air:hotpath
//air:locked(mu)
func (t *Timeline) windowOpen(e obs.Event) {
	ps := t.partFor(e)
	if ps.active { // defensive: a window cannot already be open
		t.closeWindow(ps, e.Time)
	}
	ps.active = true
	ps.windowStart = e.Time
	ps.windows++
}

//air:hotpath
//air:locked(mu)
func (t *Timeline) windowClose(e obs.Event) {
	if ps, ok := t.parts[partKey{core: e.Core, name: e.Partition}]; ok {
		t.closeWindow(ps, e.Time)
	}
}

//air:hotpath
//air:locked(mu)
func (t *Timeline) closeWindow(ps *partState, now tick.Ticks) {
	if !ps.active {
		return
	}
	// Roll any cycle boundary the window straddled first, so its head is
	// credited to the finished cycle before the tail is accounted here.
	t.rollCycles(ps, now)
	if d := now - ps.windowStart; d > 0 {
		ps.supplied += uint64(d)
		ps.suppliedCycle += d
	}
	ps.active = false
}

// advance moves the analyzer clock to now, rolling partition cycles over
// their boundaries (checking supplied time against the contracted budget),
// adopting requested schedules at MTF boundaries, and raising early
// warnings for open activations whose slack watermark was crossed.
//
//air:hotpath
//air:locked(mu)
func (t *Timeline) advance(now tick.Ticks) {
	if now < t.now {
		return // same-instant reordering cannot move the clock back
	}
	t.now = now
	for _, ps := range t.partList {
		t.rollCycles(ps, now)
	}
	for t.mtf > 0 && now >= t.mtfEnd {
		boundary := t.mtfEnd
		if t.pending != "" && t.sys != nil {
			//air:allow(call): schedule adoption happens at most once per MTF boundary, off the per-tick path
			if s, _, ok := t.sys.ScheduleByName(t.pending); ok {
				t.adopt(s, boundary) //air:allow(call): see above; adoption rebuilds the contract table
			}
			t.pending = ""
		}
		if t.mtfEnd == boundary { // adopt may already have advanced it
			t.mtfEnd += t.mtf
		}
	}
	for _, st := range t.procList {
		if st.open && !st.warned && st.hasDeadline && now >= st.warnAt {
			st.warned = true
			st.warnedAt = now
			st.warnings++
			t.warnings++
			remaining := st.deadline - now
			if remaining < 0 {
				remaining = 0
			}
			t.queue(obs.Event{Time: now, Kind: obs.KindSlackWarning,
				Core: st.key.core, Partition: st.key.part, Process: st.key.name,
				Latency: remaining, Detail: "remaining slack below watermark"})
		}
	}
}

// rollCycles closes every contracted activation cycle that ended at or
// before now: the supplied time of the finished cycle is compared against
// the budget d of eq. (19), and a shortfall is flagged as a MODEL_VIOLATION
// event (the supply the windows actually delivered broke the contract the
// schedulability analysis assumed).
//
//air:hotpath
//air:locked(mu)
func (t *Timeline) rollCycles(ps *partState, now tick.Ticks) {
	for ps.cycle > 0 && now >= ps.cycleEnd {
		if ps.active && ps.windowStart < ps.cycleEnd {
			// A window straddles the boundary: account its head to the
			// finished cycle.
			d := ps.cycleEnd - ps.windowStart
			ps.supplied += uint64(d)
			ps.suppliedCycle += d
			ps.windowStart = ps.cycleEnd
		}
		ps.lastCycle = ps.suppliedCycle
		if ps.suppliedCycle < ps.budget {
			ps.shortfalls++
			t.violations++
			t.queue(obs.Event{Time: ps.cycleEnd, Kind: obs.KindModelViolation,
				Core: ps.key.core, Partition: ps.key.name,
				Latency: ps.budget - ps.suppliedCycle,
				Detail:  "supplied time below contracted budget"})
		}
		ps.suppliedCycle = 0
		ps.cycleEnd += ps.cycle
	}
}

// Registry returns the analyzer's private metrics registry snapshot — the
// same counters and histograms as the module registry, but safe to read
// while the module runs.
func (t *Timeline) Registry() obs.Snapshot {
	if t == nil {
		return obs.Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reg.Snapshot()
}

// ProcSnap is the serialized per-process derived state.
type ProcSnap struct {
	Core        int      `json:"core,omitempty"`
	Partition   string   `json:"partition"`
	Process     string   `json:"process"`
	Releases    uint64   `json:"releases"`
	Completions uint64   `json:"completions"`
	Misses      uint64   `json:"misses,omitempty"`
	Warnings    uint64   `json:"warnings,omitempty"`
	Response    HistSnap `json:"response"`
	Jitter      HistSnap `json:"jitter"`
	Slack       HistSnap `json:"slack"`
}

// PartSnap is the serialized per-partition supply accounting.
type PartSnap struct {
	Core              int     `json:"core,omitempty"`
	Partition         string  `json:"partition"`
	Windows           uint64  `json:"windows"`
	Supplied          uint64  `json:"suppliedTicks"`
	Utilization       float64 `json:"utilization"`
	CycleTicks        uint64  `json:"cycleTicks,omitempty"`
	BudgetTicks       uint64  `json:"budgetTicks,omitempty"`
	LastCycleSupplied uint64  `json:"lastCycleSupplied,omitempty"`
	Shortfalls        uint64  `json:"shortfalls,omitempty"`
}

// ArchiveSnap is the flight archive's durable-storage accounting as seen at
// snapshot time: sealed+active segment count, bytes framed, records appended.
type ArchiveSnap struct {
	Segments uint64 `json:"segments"`
	Bytes    uint64 `json:"bytes"`
	Records  uint64 `json:"records"`
}

// SetArchiveStats installs the flight-archive gauge source polled by
// Snapshot (nil detaches it). The callback must be safe to invoke from the
// telemetry server's goroutine.
func (t *Timeline) SetArchiveStats(fn func() ArchiveSnap) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.archiveStats = fn
	t.mu.Unlock()
}

// Snapshot is the analyzer's point-in-time derived state: deterministic
// (sorted), JSON-serializable and mergeable, so campaign aggregation can
// fold the per-run analyzers of a whole fault matrix.
type Snapshot struct {
	Ticks    uint64 `json:"ticks"`
	Schedule string `json:"schedule,omitempty"`

	Partitions []PartSnap `json:"partitions"`
	Processes  []ProcSnap `json:"processes"`

	// Merged process histograms across all processes.
	Response HistSnap `json:"response"`
	Jitter   HistSnap `json:"jitter"`
	Slack    HistSnap `json:"slack"`

	DeadlineMisses   uint64   `json:"deadlineMisses"`
	EarlyWarnings    uint64   `json:"earlyWarnings"`
	EarlyWarningLead HistSnap `json:"earlyWarningLead"`
	ModelViolations  uint64   `json:"modelViolations"`

	// Archive carries the flight archive's durable-storage gauges when a
	// sink is attached (SetArchiveStats); nil keeps unarchived snapshots —
	// and every previously recorded result file — byte-identical.
	Archive *ArchiveSnap `json:"archive,omitempty"`
}

// Snapshot captures the analyzer's current derived state.
func (t *Timeline) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		Ticks:            uint64(t.now),
		Schedule:         t.schedule,
		DeadlineMisses:   t.misses,
		EarlyWarnings:    t.warnings,
		EarlyWarningLead: t.lead.snap(),
		ModelViolations:  t.violations,
	}
	if t.archiveStats != nil {
		a := t.archiveStats()
		s.Archive = &a
	}
	for _, ps := range t.partList {
		p := PartSnap{
			Core:              ps.key.core,
			Partition:         string(ps.key.name),
			Windows:           ps.windows,
			Supplied:          ps.supplied,
			CycleTicks:        uint64(ps.cycle),
			BudgetTicks:       uint64(ps.budget),
			LastCycleSupplied: uint64(ps.lastCycle),
			Shortfalls:        ps.shortfalls,
		}
		supplied := ps.supplied
		if ps.active && t.now > ps.windowStart {
			supplied += uint64(t.now - ps.windowStart)
		}
		if t.now > 0 {
			p.Utilization = float64(supplied) / float64(t.now)
		}
		s.Partitions = append(s.Partitions, p)
	}
	sortParts(s.Partitions)
	for _, st := range t.procList {
		p := ProcSnap{
			Core:        st.key.core,
			Partition:   string(st.key.part),
			Process:     st.key.name,
			Releases:    st.releases,
			Completions: st.completions,
			Misses:      st.misses,
			Warnings:    st.warnings,
			Response:    st.response.snap(),
			Jitter:      st.jitter.snap(),
			Slack:       st.slack.snap(),
		}
		s.Processes = append(s.Processes, p)
		s.Response.accumulate(&p.Response)
		s.Jitter.accumulate(&p.Jitter)
		s.Slack.accumulate(&p.Slack)
	}
	sortProcs(s.Processes)
	return s
}

// Accumulate merges o into s in place (union of partitions and processes by
// key, histograms and counters folded) — the campaign aggregation
// primitive. Rows merge-join, as both sides keep them in key order; a key s
// lacks is copied in with its own buckets, so what s accumulates never
// aliases o, and accumulating into a zero Snapshot makes a copy.
func (s *Snapshot) Accumulate(o *Snapshot) {
	s.Ticks += o.Ticks
	if s.Schedule == "" {
		s.Schedule = o.Schedule
	} else if o.Schedule != "" && o.Schedule != s.Schedule {
		s.Schedule = "mixed"
	}
	s.DeadlineMisses += o.DeadlineMisses
	s.EarlyWarnings += o.EarlyWarnings
	s.EarlyWarningLead.accumulate(&o.EarlyWarningLead)
	s.ModelViolations += o.ModelViolations
	s.Response.accumulate(&o.Response)
	s.Jitter.accumulate(&o.Jitter)
	s.Slack.accumulate(&o.Slack)
	if o.Archive != nil {
		if s.Archive == nil {
			s.Archive = &ArchiveSnap{}
		}
		s.Archive.Segments += o.Archive.Segments
		s.Archive.Bytes += o.Archive.Bytes
		s.Archive.Records += o.Archive.Records
	}
	s.Partitions = mergeRows(s.Partitions, o.Partitions)
	if s.Ticks > 0 {
		for i := range s.Partitions {
			s.Partitions[i].Utilization = float64(s.Partitions[i].Supplied) / float64(s.Ticks)
		}
	}
	s.Processes = mergeRows(s.Processes, o.Processes)
}

// row is a snapshot row, PartSnap or ProcSnap: ordered and merged by key.
type row[R any] interface {
	*R
	compare(o *R) int
	merge(o *R)
	clone() R
}

// mergeRows merge-joins o's rows into rows, both in key order: a row whose
// key rows holds merges into it, any other is cloned in. It works in place
// when rows holds every key of o, and returns nil for no rows.
func mergeRows[R any, P row[R]](rows, o []R) []R {
	missing := 0
	for i, j := 0, 0; j < len(o); {
		if i == len(rows) {
			missing += len(o) - j
			break
		}
		switch c := P(&rows[i]).compare(&o[j]); {
		case c < 0:
			i++
		case c > 0:
			missing++
			j++
		default:
			i++
			j++
		}
	}
	if missing == 0 {
		// The same walk as above, which met every row of o.
		for i, j := 0, 0; j < len(o); i++ {
			if P(&rows[i]).compare(&o[j]) == 0 {
				P(&rows[i]).merge(&o[j])
				j++
			}
		}
		if len(rows) == 0 {
			return nil
		}
		return rows
	}
	out := make([]R, 0, len(rows)+missing)
	i, j := 0, 0
	for i < len(rows) || j < len(o) {
		c := -1
		switch {
		case i == len(rows):
			c = 1
		case j < len(o):
			c = P(&rows[i]).compare(&o[j])
		}
		switch {
		case c < 0:
			out = append(out, rows[i])
			i++
		case c > 0:
			out = append(out, P(&o[j]).clone())
			j++
		default:
			P(&rows[i]).merge(&o[j])
			out = append(out, rows[i])
			i++
			j++
		}
	}
	return out
}

func (p *PartSnap) compare(o *PartSnap) int { return p.key().compare(o.key()) }

func (p *ProcSnap) compare(o *ProcSnap) int { return p.key().compare(o.key()) }

// merge folds a later snapshot's row of the same partition into p: supply
// adds, the last cycle is the later one's, the contract the first known.
func (p *PartSnap) merge(o *PartSnap) {
	p.Windows += o.Windows
	p.Supplied += o.Supplied
	p.Shortfalls += o.Shortfalls
	p.LastCycleSupplied = o.LastCycleSupplied
	if p.CycleTicks == 0 {
		p.CycleTicks, p.BudgetTicks = o.CycleTicks, o.BudgetTicks
	}
}

func (p *PartSnap) clone() PartSnap { return *p }

// merge folds another snapshot's row of the same process into p.
func (p *ProcSnap) merge(o *ProcSnap) {
	p.Releases += o.Releases
	p.Completions += o.Completions
	p.Misses += o.Misses
	p.Warnings += o.Warnings
	p.Response.accumulate(&o.Response)
	p.Jitter.accumulate(&o.Jitter)
	p.Slack.accumulate(&o.Slack)
}

// clone copies p with buckets of its own, its three histograms' in one
// allocation. Each slice is capped at its length, so growing one never
// writes into the next.
func (p *ProcSnap) clone() ProcSnap {
	c := *p
	r, j, s := len(p.Response.Buckets), len(p.Jitter.Buckets), len(p.Slack.Buckets)
	if r+j+s == 0 {
		return c
	}
	buf := make([]uint64, r+j+s)
	c.Response.Buckets = cloneInto(buf[:r:r], p.Response.Buckets)
	c.Jitter.Buckets = cloneInto(buf[r:r+j:r+j], p.Jitter.Buckets)
	c.Slack.Buckets = cloneInto(buf[r+j:], p.Slack.Buckets)
	return c
}

// cloneInto copies src into dst, of src's length, keeping src's nil.
func cloneInto(dst, src []uint64) []uint64 {
	if src == nil {
		return nil
	}
	copy(dst, src)
	return dst
}

// AppendSnapshot appends s as encoding/json writes it: the form a fleet
// completion carries each run's timeline in.
func AppendSnapshot(e *wire.Encoder, s *Snapshot) {
	e.Raw(`{"ticks":`)
	e.Uint(s.Ticks)
	if s.Schedule != "" {
		e.Raw(`,"schedule":`)
		e.Str(s.Schedule)
	}
	e.Raw(`,"partitions":`)
	wire.AppendArray(e, s.Partitions, appendPart)
	e.Raw(`,"processes":`)
	wire.AppendArray(e, s.Processes, appendProc)
	appendHist(e, `,"response":`, &s.Response)
	appendHist(e, `,"jitter":`, &s.Jitter)
	appendHist(e, `,"slack":`, &s.Slack)
	e.Raw(`,"deadlineMisses":`)
	e.Uint(s.DeadlineMisses)
	e.Raw(`,"earlyWarnings":`)
	e.Uint(s.EarlyWarnings)
	appendHist(e, `,"earlyWarningLead":`, &s.EarlyWarningLead)
	e.Raw(`,"modelViolations":`)
	e.Uint(s.ModelViolations)
	if a := s.Archive; a != nil {
		e.Raw(`,"archive":{"segments":`)
		e.Uint(a.Segments)
		e.Raw(`,"bytes":`)
		e.Uint(a.Bytes)
		e.Raw(`,"records":`)
		e.Uint(a.Records)
		e.Raw("}")
	}
	e.Raw("}")
}

func appendPart(e *wire.Encoder, p *PartSnap) {
	e.Raw("{")
	if p.Core != 0 {
		e.Raw(`"core":`)
		e.Int(int64(p.Core))
		e.Raw(",")
	}
	e.Raw(`"partition":`)
	e.Str(p.Partition)
	e.Raw(`,"windows":`)
	e.Uint(p.Windows)
	e.Raw(`,"suppliedTicks":`)
	e.Uint(p.Supplied)
	e.Raw(`,"utilization":`)
	e.Float(p.Utilization)
	e.OmitemptyUint(`,"cycleTicks":`, p.CycleTicks)
	e.OmitemptyUint(`,"budgetTicks":`, p.BudgetTicks)
	e.OmitemptyUint(`,"lastCycleSupplied":`, p.LastCycleSupplied)
	e.OmitemptyUint(`,"shortfalls":`, p.Shortfalls)
	e.Raw("}")
}

func appendProc(e *wire.Encoder, p *ProcSnap) {
	e.Raw("{")
	if p.Core != 0 {
		e.Raw(`"core":`)
		e.Int(int64(p.Core))
		e.Raw(",")
	}
	e.Raw(`"partition":`)
	e.Str(p.Partition)
	e.Raw(`,"process":`)
	e.Str(p.Process)
	e.Raw(`,"releases":`)
	e.Uint(p.Releases)
	e.Raw(`,"completions":`)
	e.Uint(p.Completions)
	e.OmitemptyUint(`,"misses":`, p.Misses)
	e.OmitemptyUint(`,"warnings":`, p.Warnings)
	appendHist(e, `,"response":`, &p.Response)
	appendHist(e, `,"jitter":`, &p.Jitter)
	appendHist(e, `,"slack":`, &p.Slack)
	e.Raw("}")
}

// ParseSnapshot reads into the zero s one snapshot as AppendSnapshot writes
// it, any member of which may be left out.
func ParseSnapshot(p *wire.Parser, s *Snapshot) {
	p.Object()
	if p.Field(`"ticks":`) {
		s.Ticks = p.Uint64()
	}
	if p.Field(`"schedule":`) {
		s.Schedule = p.NonemptyStr()
	}
	if p.Field(`"partitions":`) {
		s.Partitions = wire.ParseArray(p, parsePart)
	}
	if p.Field(`"processes":`) {
		s.Processes = wire.ParseArray(p, parseProc)
	}
	parseHist(p, `"response":`, &s.Response)
	parseHist(p, `"jitter":`, &s.Jitter)
	parseHist(p, `"slack":`, &s.Slack)
	if p.Field(`"deadlineMisses":`) {
		s.DeadlineMisses = p.Uint64()
	}
	if p.Field(`"earlyWarnings":`) {
		s.EarlyWarnings = p.Uint64()
	}
	parseHist(p, `"earlyWarningLead":`, &s.EarlyWarningLead)
	if p.Field(`"modelViolations":`) {
		s.ModelViolations = p.Uint64()
	}
	if p.Field(`"archive":`) {
		a := &ArchiveSnap{}
		p.Object()
		if p.Field(`"segments":`) {
			a.Segments = p.Uint64()
		}
		if p.Field(`"bytes":`) {
			a.Bytes = p.Uint64()
		}
		if p.Field(`"records":`) {
			a.Records = p.Uint64()
		}
		p.End()
		s.Archive = a
	}
	p.End()
}

func parsePart(p *wire.Parser, r *PartSnap) {
	p.Object()
	if p.Field(`"core":`) {
		r.Core = p.NonzeroInt()
	}
	if p.Field(`"partition":`) {
		r.Partition = p.Str()
	}
	if p.Field(`"windows":`) {
		r.Windows = p.Uint64()
	}
	if p.Field(`"suppliedTicks":`) {
		r.Supplied = p.Uint64()
	}
	if p.Field(`"utilization":`) {
		r.Utilization = p.Float64()
	}
	if p.Field(`"cycleTicks":`) {
		r.CycleTicks = p.NonzeroUint64()
	}
	if p.Field(`"budgetTicks":`) {
		r.BudgetTicks = p.NonzeroUint64()
	}
	if p.Field(`"lastCycleSupplied":`) {
		r.LastCycleSupplied = p.NonzeroUint64()
	}
	if p.Field(`"shortfalls":`) {
		r.Shortfalls = p.NonzeroUint64()
	}
	p.End()
}

func parseProc(p *wire.Parser, r *ProcSnap) {
	p.Object()
	if p.Field(`"core":`) {
		r.Core = p.NonzeroInt()
	}
	if p.Field(`"partition":`) {
		r.Partition = p.Str()
	}
	if p.Field(`"process":`) {
		r.Process = p.Str()
	}
	if p.Field(`"releases":`) {
		r.Releases = p.Uint64()
	}
	if p.Field(`"completions":`) {
		r.Completions = p.Uint64()
	}
	if p.Field(`"misses":`) {
		r.Misses = p.NonzeroUint64()
	}
	if p.Field(`"warnings":`) {
		r.Warnings = p.NonzeroUint64()
	}
	parseHist(p, `"response":`, &r.Response)
	parseHist(p, `"jitter":`, &r.Jitter)
	parseHist(p, `"slack":`, &r.Slack)
	p.End()
}

func (p *PartSnap) key() partKey {
	return partKey{core: p.Core, name: model.PartitionName(p.Partition)}
}

func (p *ProcSnap) key() procKey {
	return procKey{core: p.Core, part: model.PartitionName(p.Partition), name: p.Process}
}

// sortParts and sortProcs put snapshot rows in key order.
func sortParts(ps []PartSnap) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].key().compare(ps[j].key()) < 0 })
}

func sortProcs(ps []ProcSnap) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].key().compare(ps[j].key()) < 0 })
}

// WorstSlack returns the minimum observed completion slack in ticks and
// whether any deadline-constrained completion was observed.
func (s Snapshot) WorstSlack() (uint64, bool) {
	return s.Slack.Min, s.Slack.Count > 0
}
