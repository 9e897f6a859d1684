// Package recovery is the HM-driven recovery orchestration layer: a policy
// engine between the Health Monitor's per-error decisions (paper Sect. 2.4,
// 5) and the kernel's execution of them. The Health Monitor decides *one*
// recovery action per error; it says nothing about recovery that fails — a
// partition that cold-starts, faults again and cold-starts forever consumes
// its processor windows doing nothing useful (the restart-storm failure
// mode). This layer closes the loop with three deterministic, tick-based
// mechanisms:
//
//   - Restart budgets with exponential backoff: each partition holds a
//     token-bucket of restarts per sliding tick-window; a restart exceeding
//     the budget is deferred by a backoff delay that doubles per consecutive
//     deferral.
//   - Circuit-breaker quarantine: after N failed recoveries (restarts
//     re-requested within a failure window of the previous one) the
//     partition is driven to idle and marked quarantined; after a cooldown a
//     half-open probe restart is attempted, and only a probe that stays
//     healthy closes the breaker. A probe that faults reopens it with a
//     doubled cooldown.
//   - Graceful degradation: a configurable escalation ladder that, on
//     quarantine (or module-level error), switches the module to a
//     designated safe-mode schedule via the existing mode-based schedule
//     machinery (paper Sect. 4), and restores the nominal schedule once no
//     partition has been quarantined for a configured number of ticks.
//
// The engine is purely logical-time driven and holds no locks: the module's
// strict-alternation execution model already serializes every caller. All
// state transitions are published on the observability spine
// (RESTART_DEFERRED, QUARANTINE_ENTER/EXIT, SCHEDULE_DEGRADE/RESTORE), and
// quarantine durations (MTTR), degraded-mode residency, backoff delays and
// window occupancies feed the spine's recovery histograms.
package recovery

import (
	"fmt"
	"sort"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// Budget is a partition's restart token-bucket: at most MaxRestarts restart
// grants inside any sliding Window of ticks. The zero Budget disables
// budgeting (every restart is granted immediately).
type Budget struct {
	// MaxRestarts is the number of restarts granted per sliding window;
	// 0 disables the budget.
	MaxRestarts int
	// Window is the sliding window length in ticks.
	Window tick.Ticks
	// BackoffBase is the first deferral delay; consecutive deferrals double
	// it. 0 defaults to Window.
	BackoffBase tick.Ticks
	// BackoffMax caps the doubled delays; 0 means uncapped.
	BackoffMax tick.Ticks
}

func (b Budget) enabled() bool { return b.MaxRestarts > 0 && b.Window > 0 }

// Quarantine configures the circuit breaker. The zero Quarantine disables
// it.
type Quarantine struct {
	// Failures is the number of failed recoveries inside FailureWindow that
	// trips the breaker; 0 disables quarantine.
	Failures int
	// FailureWindow classifies a restart re-requested within this many
	// ticks of the previous granted restart as a failed recovery.
	FailureWindow tick.Ticks
	// Cooldown is the quarantine duration before the half-open probe
	// restart is attempted.
	Cooldown tick.Ticks
	// CooldownMax caps the cooldown doubling applied when a probe faults;
	// 0 means uncapped.
	CooldownMax tick.Ticks
	// ProbeTicks is how long a half-open probe must stay healthy before the
	// breaker closes and the quarantine is lifted.
	ProbeTicks tick.Ticks
}

// Rung is one step of the degradation ladder: when at least Quarantined
// partitions are quarantined, the module switches to Schedule.
type Rung struct {
	// Quarantined is the rung's activation threshold (≥ 1).
	Quarantined int
	// Schedule names the safe-mode scheduling table to switch to.
	Schedule string
}

// Degradation configures graceful degradation to safe-mode schedules.
type Degradation struct {
	// Ladder lists the escalation rungs; the deepest rung whose threshold
	// the quarantined-partition count meets is active. Empty disables
	// degradation.
	Ladder []Rung
	// OnModuleError additionally activates the ladder's first rung when a
	// module-level error resets the module.
	OnModuleError bool
	// RestoreAfter is how long the module must stay free of quarantined
	// partitions before the nominal schedule is restored.
	RestoreAfter tick.Ticks
}

// Policy is the complete recovery-orchestration policy of one module.
type Policy struct {
	// Default is the budget applied to partitions without an entry in
	// Budgets.
	Default Budget
	// Budgets holds per-partition budget overrides.
	Budgets map[model.PartitionName]Budget
	// Quarantine is the module-wide circuit-breaker configuration.
	Quarantine Quarantine
	// Degradation is the safe-mode schedule escalation ladder.
	Degradation Degradation
}

// DefaultPolicy returns a conservative policy sized for the paper's Fig. 8
// prototype (MTF 1300): two restarts per two-MTF window backing off from
// half an MTF, quarantine after three failed recoveries, and a two-MTF
// cooldown with a one-MTF health probe. The degradation ladder is empty —
// safe-mode schedules are system-specific and must be named explicitly.
func DefaultPolicy() Policy {
	return Policy{
		Default: Budget{MaxRestarts: 2, Window: 2600, BackoffBase: 650, BackoffMax: 5200},
		Quarantine: Quarantine{
			Failures: 3, FailureWindow: 1300,
			Cooldown: 2600, CooldownMax: 10400, ProbeTicks: 1300,
		},
		Degradation: Degradation{RestoreAfter: 2600},
	}
}

// Validate checks the policy against the module's partition set and (when
// non-nil) its schedule names.
func (p Policy) Validate(partitions []model.PartitionName, schedules []string) error {
	known := make(map[model.PartitionName]bool, len(partitions))
	for _, name := range partitions {
		known[name] = true
	}
	names := make([]string, 0, len(p.Budgets))
	for name := range p.Budgets { //air:allow(maprange): collected into a slice and sorted below
		names = append(names, string(name))
	}
	sort.Strings(names)
	for _, name := range names {
		if !known[model.PartitionName(name)] {
			return fmt.Errorf("recovery: budget for unknown partition %q", name)
		}
		if err := p.Budgets[model.PartitionName(name)].validate(); err != nil {
			return fmt.Errorf("recovery: partition %q: %w", name, err)
		}
	}
	if err := p.Default.validate(); err != nil {
		return fmt.Errorf("recovery: default budget: %w", err)
	}
	q := p.Quarantine
	if q.Failures < 0 || q.FailureWindow < 0 || q.Cooldown < 0 || q.CooldownMax < 0 || q.ProbeTicks < 0 {
		return fmt.Errorf("recovery: negative quarantine parameter")
	}
	d := p.Degradation
	if d.RestoreAfter < 0 {
		return fmt.Errorf("recovery: negative RestoreAfter")
	}
	haveSchedules := schedules != nil
	knownSched := make(map[string]bool, len(schedules))
	for _, s := range schedules {
		knownSched[s] = true
	}
	for i, r := range d.Ladder {
		if r.Quarantined < 1 {
			return fmt.Errorf("recovery: ladder rung %d: threshold %d < 1", i, r.Quarantined)
		}
		if r.Schedule == "" {
			return fmt.Errorf("recovery: ladder rung %d: empty schedule name", i)
		}
		if haveSchedules && !knownSched[r.Schedule] {
			return fmt.Errorf("recovery: ladder rung %d: unknown schedule %q", i, r.Schedule)
		}
	}
	return nil
}

func (b Budget) validate() error {
	if b.MaxRestarts < 0 || b.Window < 0 || b.BackoffBase < 0 || b.BackoffMax < 0 {
		return fmt.Errorf("negative budget parameter")
	}
	if b.MaxRestarts > 0 && b.Window <= 0 {
		return fmt.Errorf("MaxRestarts %d without a window", b.MaxRestarts)
	}
	return nil
}

// Verdict is the engine's arbitration of one restart request.
type Verdict int

// Verdicts.
const (
	// VerdictAllow grants the restart: the caller executes it now.
	VerdictAllow Verdict = iota + 1
	// VerdictDefer postpones the restart: the caller idles the partition
	// and the engine restarts it from OnTick once the backoff elapses.
	VerdictDefer
	// VerdictQuarantine trips the circuit breaker: the caller idles the
	// partition and the engine probes it from OnTick after the cooldown.
	VerdictQuarantine
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAllow:
		return "allow"
	case VerdictDefer:
		return "defer"
	case VerdictQuarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Decision is the engine's answer to RequestRestart.
type Decision struct {
	Verdict Verdict
	// Occupancy is the partition's restart count in the sliding budget
	// window including this grant (VerdictAllow only); the kernel stamps it
	// onto the PARTITION_RESTART trace event to feed the restarts-per-window
	// histogram.
	Occupancy int
	// ResumeAt is the tick at which a deferred restart will execute
	// (VerdictDefer only).
	ResumeAt tick.Ticks
}

// Status is a partition's recovery state.
type Status int

// Statuses.
const (
	StatusNormal Status = iota
	StatusDeferred
	StatusQuarantined
	StatusHalfOpen
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusNormal:
		return "normal"
	case StatusDeferred:
		return "deferred"
	case StatusQuarantined:
		return "quarantined"
	case StatusHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Hooks are the kernel operations the engine drives. Restart must execute a
// partition restart immediately (occupancy is the restart count inside the
// sliding budget window, stamped onto the PARTITION_RESTART trace event);
// SwitchSchedule must request a module schedule switch by name (taking
// effect at the next MTF boundary, Sect. 4) and report whether the request
// was accepted; ScheduleName must name the currently active schedule
// (captured as the nominal schedule when degradation begins).
type Hooks struct {
	Restart        func(p model.PartitionName, mode model.OperatingMode, reason string, occupancy int)
	SwitchSchedule func(name string) bool
	ScheduleName   func() string
}

// Options configures an Engine.
type Options struct {
	// Now supplies the current logical time.
	Now func() tick.Ticks
	// Obs publishes the engine's state transitions on the module spine.
	Obs obs.Emitter
	// Hooks are the kernel operations (see Hooks).
	Hooks Hooks
	// Partitions fixes the deterministic iteration order of per-partition
	// state (the module's configuration order).
	Partitions []model.PartitionName
}

// Engine is the per-module recovery orchestrator. It is not internally
// synchronized: the module's strict alternation serializes all callers.
type Engine struct {
	policy Policy
	now    func() tick.Ticks
	obs    obs.Emitter
	hooks  Hooks
	parts  []*partState
	byName map[model.PartitionName]*partState
	ladder []Rung // sorted by ascending threshold
	deg    degradeState
}

type partState struct {
	name model.PartitionName
	// deferred marks a restart postponed by the budget until resumeAt.
	deferred bool
	// restarts holds the grant times inside the sliding budget window.
	restarts []tick.Ticks
	// deferrals counts consecutive deferrals (the backoff exponent).
	deferrals int
	// breaker is the partition's quarantine circuit breaker.
	breaker Breaker[tick.Ticks]
	// lastGrant is the time of the most recent granted restart.
	lastGrant tick.Ticks
	granted   bool
	// resumeAt/resumeMode describe the pending deferred restart.
	resumeAt   tick.Ticks
	resumeMode model.OperatingMode
	// quarantinedAt is when the current quarantine episode began (preserved
	// across failed probes so MTTR spans the whole episode).
	quarantinedAt tick.Ticks
}

// status derives the recovery status from the breaker and the deferral.
func (st *partState) status() Status {
	switch st.breaker.State() {
	case BreakerOpen:
		return StatusQuarantined
	case BreakerHalfOpen:
		return StatusHalfOpen
	}
	if st.deferred {
		return StatusDeferred
	}
	return StatusNormal
}

type degradeState struct {
	active       bool
	rung         int
	nominal      string
	enteredAt    tick.Ticks
	healthySince tick.Ticks
	healthyValid bool
}

// NewEngine builds an engine for a validated policy.
func NewEngine(p Policy, opts Options) *Engine {
	e := &Engine{
		policy: p,
		now:    opts.Now,
		obs:    opts.Obs,
		hooks:  opts.Hooks,
		byName: make(map[model.PartitionName]*partState, len(opts.Partitions)),
	}
	if e.now == nil {
		e.now = func() tick.Ticks { return 0 }
	}
	q := p.Quarantine
	for _, name := range opts.Partitions {
		st := &partState{name: name, breaker: NewBreaker(q.Failures, q.FailureWindow, q.Cooldown, q.CooldownMax)}
		e.parts = append(e.parts, st)
		e.byName[name] = st
	}
	e.ladder = append([]Rung(nil), p.Degradation.Ladder...)
	sort.SliceStable(e.ladder, func(i, j int) bool {
		return e.ladder[i].Quarantined < e.ladder[j].Quarantined
	})
	return e
}

// RequestRestart arbitrates an HM-decided partition restart. VerdictAllow
// means the caller executes the restart now; VerdictDefer and
// VerdictQuarantine mean the caller must drive the partition to idle — the
// engine restarts it later from OnTick.
func (e *Engine) RequestRestart(p model.PartitionName, mode model.OperatingMode) Decision {
	st := e.byName[p]
	if st == nil {
		return Decision{Verdict: VerdictAllow}
	}
	now := e.now()
	switch st.status() {
	case StatusQuarantined:
		return Decision{Verdict: VerdictQuarantine}
	case StatusDeferred:
		return Decision{Verdict: VerdictDefer, ResumeAt: st.resumeAt}
	case StatusHalfOpen:
		// The probe faulted before proving health: reopen the breaker with
		// a doubled cooldown.
		st.breaker.ProbeFailed(now)
		e.enterQuarantine(st, now, "half-open probe failed")
		return Decision{Verdict: VerdictQuarantine}
	}
	// Failed-recovery detection: a restart requested this soon after the
	// previous granted one means that recovery did not take.
	if st.granted && now-st.lastGrant <= e.policy.Quarantine.FailureWindow && st.breaker.Fail(now) {
		st.quarantinedAt = now
		e.enterQuarantine(st, now, "repeated failed recoveries")
		return Decision{Verdict: VerdictQuarantine}
	}
	b := e.budgetFor(p)
	if b.enabled() {
		st.restarts = slide(st.restarts, now, b.Window)
		if len(st.restarts) >= b.MaxRestarts {
			delay := backoff(b, st.deferrals)
			st.deferrals++
			st.deferred = true
			st.resumeAt = now + delay
			st.resumeMode = mode
			e.obs.Emit(obs.Event{
				Time: now, Kind: obs.KindRestartDeferred, Partition: p,
				Latency: delay, Detail: "restart budget exhausted",
			})
			return Decision{Verdict: VerdictDefer, ResumeAt: st.resumeAt}
		}
		st.deferrals = 0
	}
	st.restarts = append(st.restarts, now)
	st.lastGrant, st.granted = now, true
	return Decision{Verdict: VerdictAllow, Occupancy: len(st.restarts)}
}

// OnTick advances the engine to the given time: it executes due deferred
// restarts, launches half-open probes whose cooldown elapsed, closes the
// breaker for probes that stayed healthy and restores the nominal schedule
// once the module has stayed healthy long enough.
func (e *Engine) OnTick(now tick.Ticks) {
	for _, st := range e.parts {
		switch st.status() {
		case StatusDeferred:
			if now >= st.resumeAt {
				st.deferred = false
				if b := e.budgetFor(st.name); b.enabled() {
					st.restarts = slide(st.restarts, now, b.Window)
				}
				st.restarts = append(st.restarts, now)
				st.lastGrant, st.granted = now, true
				e.hooks.Restart(st.name, st.resumeMode, "deferred restart resumed", len(st.restarts))
			}
		case StatusQuarantined:
			if st.breaker.ProbeDue(now) {
				st.breaker.Probe()
				st.lastGrant, st.granted = now, true
				e.hooks.Restart(st.name, model.ModeColdStart, "half-open probe", 1)
			}
		case StatusHalfOpen:
			// The probe restart is the last grant until the probe ends.
			if now-st.lastGrant >= e.policy.Quarantine.ProbeTicks {
				st.breaker.Close()
				st.restarts = st.restarts[:0]
				st.deferrals = 0
				e.obs.Emit(obs.Event{
					Time: now, Kind: obs.KindQuarantineExit, Partition: st.name,
					Latency: now - st.quarantinedAt,
					Detail:  "probe healthy, quarantine lifted",
				})
				e.evalDegradation(now)
			}
		}
	}
	e.tickRestore(now)
}

// NoteModuleError escalates to the ladder's first rung on a module-level
// error, when the policy requests it.
func (e *Engine) NoteModuleError(now tick.Ticks) {
	if !e.policy.Degradation.OnModuleError || len(e.ladder) == 0 || e.hooks.SwitchSchedule == nil {
		return
	}
	e.applyRung(now, 0, "module-level error")
}

// Reset clears all per-partition recovery state and the degradation state
// (used on module reset, which cold-starts every partition).
func (e *Engine) Reset() {
	for _, st := range e.parts {
		*st = partState{name: st.name, breaker: st.breaker}
		st.breaker.Close()
	}
	e.deg = degradeState{}
}

// StatusOf reports a partition's recovery status.
func (e *Engine) StatusOf(p model.PartitionName) Status {
	if st := e.byName[p]; st != nil {
		return st.status()
	}
	return StatusNormal
}

// Quarantined lists the currently quarantined partitions (including
// half-open probes, which have not yet proven health) in configuration
// order.
func (e *Engine) Quarantined() []model.PartitionName {
	var out []model.PartitionName
	for _, st := range e.parts {
		if st.breaker.State() != BreakerClosed {
			out = append(out, st.name)
		}
	}
	return out
}

// Degraded reports whether a degradation rung is currently active.
func (e *Engine) Degraded() bool { return e.deg.active }

func (e *Engine) budgetFor(name model.PartitionName) Budget {
	if b, ok := e.policy.Budgets[name]; ok {
		return b
	}
	return e.policy.Default
}

// enterQuarantine publishes a trip or reopen and re-evaluates degradation.
func (e *Engine) enterQuarantine(st *partState, now tick.Ticks, reason string) {
	e.obs.Emit(obs.Event{
		Time: now, Kind: obs.KindQuarantineEnter, Partition: st.name, Detail: reason,
	})
	e.evalDegradation(now)
}

func (e *Engine) quarantinedCount() int {
	n := 0
	for _, st := range e.parts {
		if st.breaker.State() != BreakerClosed {
			n++
		}
	}
	return n
}

// evalDegradation re-evaluates the ladder after a quarantine transition:
// the deepest rung whose threshold the quarantined count meets is applied.
// Dropping below every rung does not switch immediately — restoration waits
// for RestoreAfter healthy ticks (tickRestore).
func (e *Engine) evalDegradation(now tick.Ticks) {
	if len(e.ladder) == 0 || e.hooks.SwitchSchedule == nil {
		return
	}
	count := e.quarantinedCount()
	rung := -1
	for i, r := range e.ladder {
		if count >= r.Quarantined {
			rung = i
		}
	}
	if rung >= 0 {
		e.applyRung(now, rung, fmt.Sprintf("%d partition(s) quarantined", count))
	}
}

func (e *Engine) applyRung(now tick.Ticks, rung int, why string) {
	if e.deg.active && e.deg.rung == rung {
		return
	}
	if !e.deg.active {
		e.deg.nominal = ""
		if e.hooks.ScheduleName != nil {
			e.deg.nominal = e.hooks.ScheduleName()
		}
		e.deg.enteredAt = now
	}
	sched := e.ladder[rung].Schedule
	if !e.hooks.SwitchSchedule(sched) {
		return
	}
	e.deg.active = true
	e.deg.rung = rung
	e.deg.healthyValid = false
	e.obs.Emit(obs.Event{
		Time: now, Kind: obs.KindScheduleDegrade,
		Detail: "degraded to schedule " + sched + ": " + why,
	})
}

// tickRestore restores the nominal schedule once the module has stayed free
// of quarantined partitions for RestoreAfter consecutive ticks.
func (e *Engine) tickRestore(now tick.Ticks) {
	if !e.deg.active {
		return
	}
	if e.quarantinedCount() > 0 {
		e.deg.healthyValid = false
		return
	}
	if !e.deg.healthyValid {
		e.deg.healthySince = now
		e.deg.healthyValid = true
	}
	if now-e.deg.healthySince < e.policy.Degradation.RestoreAfter {
		return
	}
	if e.deg.nominal != "" && e.hooks.SwitchSchedule(e.deg.nominal) {
		e.obs.Emit(obs.Event{
			Time: now, Kind: obs.KindScheduleRestore,
			Latency: now - e.deg.enteredAt,
			Detail:  "restored nominal schedule " + e.deg.nominal,
		})
	}
	e.deg = degradeState{}
}

// backoff is BackoffBase doubled per consecutive deferral, capped at
// BackoffMax (when set) and clamped against overflow.
func backoff(b Budget, deferrals int) tick.Ticks {
	d := b.BackoffBase
	if d <= 0 {
		d = b.Window
	}
	if d <= 0 {
		d = 1
	}
	for i := 0; i < deferrals && i < 32; i++ {
		d = doubled(d, b.BackoffMax)
	}
	if b.BackoffMax > 0 && d > b.BackoffMax {
		d = b.BackoffMax
	}
	return d
}
