package pmk

import (
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// Hooks are the context switching and schedule-change callbacks the
// Dispatcher invokes; the core kernel implements them (saving/restoring the
// partition execution context — including the MMU context, Sect. 2.1 — and
// applying pending schedule change actions).
type Hooks struct {
	// SaveContext saves the execution context of the partition losing the
	// processor (Algorithm 2 line 4).
	SaveContext func(p model.PartitionName)
	// RestoreContext restores the execution context of the heir partition
	// (Algorithm 2 line 8).
	RestoreContext func(p model.PartitionName)
	// PendingScheduleChangeAction applies the heir partition's pending
	// restart action, if one is armed (Algorithm 2 line 9).
	PendingScheduleChangeAction func(p model.PartitionName)
	// EnterIdle is invoked when the processor enters an idle window.
	EnterIdle func()
}

// DispatchResult reports what one dispatcher invocation did.
type DispatchResult struct {
	// Switched is true when a partition context switch occurred.
	Switched bool
	// Active is the partition now holding the processing resources.
	Active Heir
	// ElapsedTicks is the number of clock ticks elapsed since the active
	// partition last held the processor — 1 when the partition kept the
	// processor, larger after a context switch (Algorithm 2 lines 2 and 6).
	// The PAL uses it as the surrogate clock tick announcement count
	// (Fig. 7).
	ElapsedTicks tick.Ticks
	// Ordinal is the active partition's index in the scheduler's partition
	// table (ordinal i is sys.Partitions[i]), or -1 for an idle window or a
	// partition outside that table, so the kernel finds the partition
	// without a lookup by name.
	Ordinal int
}

// Dispatcher is the AIR Partition Dispatcher featuring mode-based schedules
// (Algorithm 2). It runs after the Partition Scheduler whenever a partition
// preemption point was reached, performing the context switch between the
// active partition and the heir partition.
type Dispatcher struct {
	hooks     Hooks
	scheduler *Scheduler

	active Heir
	// activeOrd is the active partition's ordinal (-1 when idle or outside
	// the compiled partition set).
	activeOrd int
	hasRun    bool
	// lastTick is dense, indexed by the partition ordinal of the scheduler's
	// compiled tables. The scheduler selects no other partition; one
	// dispatched directly has no ordinal, so its last tick is not kept and
	// reads as 0.
	partNames []model.PartitionName
	lastTick  []tick.Ticks
	switches  int

	obs obs.Emitter
}

// NewDispatcher creates a Dispatcher bound to its scheduler and hooks.
func NewDispatcher(s *Scheduler, hooks Hooks) *Dispatcher {
	return &Dispatcher{
		hooks:     hooks,
		scheduler: s,
		active:    Heir{Idle: true},
		activeOrd: -1,
		partNames: s.partNames,
		lastTick:  make([]tick.Ticks, len(s.partNames)),
	}
}

// ordinal runs only on the context-switch slow path (one partition window
// boundary per invocation, not per tick).
func (d *Dispatcher) ordinal(p model.PartitionName) int {
	for i, n := range d.partNames {
		if n == p {
			return i
		}
	}
	return -1
}

// Dispatch is Algorithm 2: invoked with the heir selected by the scheduler
// and the current value of the global tick counter.
//
//air:hotpath
//air:allow(call): the PAL hook functions are the integration seam to the platform layer; their cost is the integrator's contract
func (d *Dispatcher) Dispatch(heir Heir, ticks tick.Ticks) DispatchResult {
	// Line 1: heirPartition == activePartition → only account one tick.
	if d.hasRun && heir == d.active {
		return DispatchResult{Active: d.active, ElapsedTicks: 1, Ordinal: d.activeOrd}
	}
	// Lines 4–5: save the outgoing partition's context.
	if d.hasRun && !d.active.Idle {
		if d.hooks.SaveContext != nil {
			d.hooks.SaveContext(d.active.Partition)
		}
		if d.activeOrd >= 0 {
			d.lastTick[d.activeOrd] = ticks - 1
		}
		d.obs.Emit(obs.Event{Time: ticks, Kind: obs.KindPreemption, Partition: d.active.Partition})
	}
	// Line 6: ticks elapsed since the heir last held the processor.
	var elapsed tick.Ticks
	ord := -1
	if heir.Idle {
		elapsed = 0
		if d.hooks.EnterIdle != nil {
			d.hooks.EnterIdle()
		}
	} else {
		elapsed = ticks
		if ord = d.ordinal(heir.Partition); ord >= 0 {
			elapsed -= d.lastTick[ord]
		}
		// Line 8: restore the heir's context.
		if d.hooks.RestoreContext != nil {
			d.hooks.RestoreContext(heir.Partition)
		}
		// Line 9: perform the heir's pending schedule change action.
		if d.hooks.PendingScheduleChangeAction != nil {
			d.hooks.PendingScheduleChangeAction(heir.Partition)
		}
		// The heir's window begins; Latency records how long the partition
		// was off the processor (feeds the spine's window-gap histogram).
		d.obs.Emit(obs.Event{Time: ticks, Kind: obs.KindWindowActivation,
			Partition: heir.Partition, Latency: elapsed})
	}
	// Line 7: the heir becomes the active partition.
	d.active = heir
	d.activeOrd = ord
	d.hasRun = true
	d.switches++
	return DispatchResult{Switched: true, Active: heir, ElapsedTicks: elapsed, Ordinal: ord}
}

// AttachObs publishes partition context switches on the module's
// observability spine: a KindPreemption event for the outgoing partition
// and a KindWindowActivation event (Latency = ticks off the processor) for
// the incoming heir.
func (d *Dispatcher) AttachObs(em obs.Emitter) { d.obs = em }

// Active returns the partition currently holding the processing resources.
func (d *Dispatcher) Active() Heir { return d.active }

// ContextSwitches returns the number of partition context switches performed.
func (d *Dispatcher) ContextSwitches() int { return d.switches }

// LastTick returns the tick at which partition p last relinquished the
// processor (0 if it never ran).
func (d *Dispatcher) LastTick(p model.PartitionName) tick.Ticks {
	if ord := d.ordinal(p); ord >= 0 {
		return d.lastTick[ord]
	}
	return 0
}

// Clone returns a deep copy of the dispatcher's Algorithm 2 state, bound to
// the given scheduler clone. Hooks and the observability emitter are NOT
// carried over — the forked module installs its own.
func (d *Dispatcher) Clone(s *Scheduler) *Dispatcher {
	c := *d
	c.scheduler = s
	c.hooks = Hooks{}
	c.lastTick = make([]tick.Ticks, len(d.lastTick))
	copy(c.lastTick, d.lastTick)
	c.obs = obs.Emitter{}
	return &c
}

// SetHooks installs the context-switch hooks (used when re-binding a cloned
// dispatcher to its forked module).
func (d *Dispatcher) SetHooks(h Hooks) { d.hooks = h }
