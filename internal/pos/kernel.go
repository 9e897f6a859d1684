package pos

import (
	"errors"
	"fmt"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// Policy selects the process scheduling algorithm of a POS instance.
type Policy int

// Scheduling policies.
const (
	// PolicyPriorityPreemptive is the RTOS policy mandated by ARINC 653 and
	// formalised by eq. (14): highest priority first, oldest-ready first
	// among equals.
	PolicyPriorityPreemptive Policy = iota + 1
	// PolicyRoundRobin models a generic non-real-time guest OS (Sect. 2.5):
	// ready processes share the partition's windows in rotation,
	// disregarding priorities.
	PolicyRoundRobin
)

// String renders the policy.
func (p Policy) String() string {
	switch p {
	case PolicyPriorityPreemptive:
		return "priority-preemptive"
	case PolicyRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// DeadlineObserver receives deadline registration traffic. The AIR PAL
// implements this interface (Sect. 5.2): APEX primitives that start, delay,
// replenish or stop processes keep the PAL's deadline structures updated
// through it.
type DeadlineObserver interface {
	// SetDeadline registers or updates the absolute deadline of a process.
	SetDeadline(id ProcessID, name string, deadline tick.Ticks)
	// ClearDeadline removes a process's deadline registration.
	ClearDeadline(id ProcessID)
}

// nopObserver is used when no PAL is attached (unit tests, bare kernels).
type nopObserver struct{}

func (nopObserver) SetDeadline(ProcessID, string, tick.Ticks) {}
func (nopObserver) ClearDeadline(ProcessID)                   {}

// Kernel errors.
var (
	ErrNoSuchProcess    = errors.New("pos: no such process")
	ErrDuplicateName    = errors.New("pos: duplicate process name")
	ErrNotDormant       = errors.New("pos: process not dormant")
	ErrNotStarted       = errors.New("pos: process not started")
	ErrNotSuspended     = errors.New("pos: process not suspended")
	ErrAlreadySuspended = errors.New("pos: process already suspended")
	ErrNotWaiting       = errors.New("pos: process not waiting")
	ErrNotPeriodic      = errors.New("pos: process not periodic")
	ErrParavirtualized  = errors.New("pos: clock interrupt control denied by paravirtualization layer")
	ErrTooManyProcesses = errors.New("pos: process table full")
	// ErrArrivalTooSoon rejects a sporadic (re)start before the minimum
	// inter-arrival time elapsed — event overload protection, the paper's
	// Sect. 8 future-work item (iii).
	ErrArrivalTooSoon = errors.New("pos: sporadic inter-arrival bound not elapsed")
)

// Kernel is one POS instance: the process scheduler and process table of a
// single partition.
type Kernel struct {
	partition model.PartitionName
	policy    Policy
	now       func() tick.Ticks
	observer  DeadlineObserver

	procs    []*Process // index = ProcessID-1
	byName   map[string]ProcessID
	seq      uint64
	rrCursor int // round-robin rotation cursor
	maxProcs int

	// lockLevel implements ARINC 653 preemption locking: while > 0 the
	// running process is not preempted by higher-priority ready processes.
	lockLevel int
	running   ProcessID

	obs obs.Emitter
}

// Options configures a Kernel.
type Options struct {
	Partition model.PartitionName
	Policy    Policy
	// Now supplies current logical time.
	Now func() tick.Ticks
	// Observer receives deadline registrations; nil installs a no-op.
	Observer DeadlineObserver
	// MaxProcesses bounds the process table (0 = 256, a typical ARINC 653
	// partition limit).
	MaxProcesses int
	// Obs publishes process-level scheduling events (KindPreemption when a
	// running process loses the processor to a higher-priority heir) on the
	// module's observability spine. The zero Emitter discards.
	Obs obs.Emitter
}

// NewKernel creates a POS kernel.
func NewKernel(opts Options) *Kernel {
	if opts.Now == nil {
		opts.Now = func() tick.Ticks { return 0 }
	}
	if opts.Observer == nil {
		opts.Observer = nopObserver{}
	}
	if opts.Policy == 0 {
		opts.Policy = PolicyPriorityPreemptive
	}
	if opts.MaxProcesses == 0 {
		opts.MaxProcesses = 256
	}
	return &Kernel{
		partition: opts.Partition,
		policy:    opts.Policy,
		now:       opts.Now,
		observer:  opts.Observer,
		byName:    make(map[string]ProcessID),
		maxProcs:  opts.MaxProcesses,
		obs:       opts.Obs,
	}
}

// Partition returns the owning partition's name.
func (k *Kernel) Partition() model.PartitionName { return k.partition }

// Policy returns the scheduling policy.
func (k *Kernel) Policy() Policy { return k.policy }

// Create installs a new dormant process from its static attributes.
func (k *Kernel) Create(spec model.TaskSpec) (ProcessID, error) {
	if err := spec.Validate(); err != nil {
		return InvalidProcess, err
	}
	if _, exists := k.byName[spec.Name]; exists {
		return InvalidProcess, fmt.Errorf("%w: %s", ErrDuplicateName, spec.Name)
	}
	if len(k.procs) >= k.maxProcs {
		return InvalidProcess, ErrTooManyProcesses
	}
	id := ProcessID(len(k.procs) + 1)
	k.procs = append(k.procs, &Process{
		ID:              id,
		Spec:            spec,
		State:           model.StateDormant,
		CurrentPriority: spec.BasePriority,
	})
	k.byName[spec.Name] = id
	return id, nil
}

// Get returns the process with the given ID.
func (k *Kernel) Get(id ProcessID) (*Process, error) {
	if id <= 0 || int(id) > len(k.procs) {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchProcess, id)
	}
	return k.procs[id-1], nil
}

// Lookup returns the process with the given name.
func (k *Kernel) Lookup(name string) (*Process, error) {
	id, ok := k.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchProcess, name)
	}
	return k.procs[id-1], nil
}

// Processes returns the process table τ_m in creation order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, len(k.procs))
	copy(out, k.procs)
	return out
}

// Start makes a dormant process able to execute: attributes are
// reinitialised, the process enters the ready state, and — per Sect. 5.2 —
// its deadline time is set to current time plus time capacity and registered
// with the PAL.
func (k *Kernel) Start(id ProcessID) error {
	return k.startAt(id, 0)
}

// DelayedStart starts a process with a given delay: it is placed in the
// waiting state until the requested delay expires (Sect. 5.2). Its first
// deadline still counts from now.
func (k *Kernel) DelayedStart(id ProcessID, delay tick.Ticks) error {
	if delay < 0 {
		return fmt.Errorf("pos: negative delay %d", delay)
	}
	return k.startAt(id, delay)
}

func (k *Kernel) startAt(id ProcessID, delay tick.Ticks) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	if p.State != model.StateDormant {
		return fmt.Errorf("%w: %s is %s", ErrNotDormant, p.Spec.Name, p.State)
	}
	now := k.now()
	// Sporadic enforcement (Sect. 3.3: for aperiodic/sporadic processes the
	// period "represents the lower bound for the time between consecutive
	// activations"): a restart arriving sooner is rejected, bounding event
	// overload.
	if !p.Spec.Periodic && p.Spec.Period > 0 && p.everStarted &&
		now+delay < p.lastArrival+p.Spec.Period {
		return fmt.Errorf("%w: %s arrived at %d, bound %d",
			ErrArrivalTooSoon, p.Spec.Name, now+delay, p.lastArrival+p.Spec.Period)
	}
	p.everStarted = true
	p.lastArrival = now + delay
	p.CurrentPriority = p.Spec.BasePriority
	p.Suspended = false
	p.TimedOut = false
	p.Started = true
	p.releaseBase = now + delay
	p.NextRelease = p.releaseBase
	if !p.Spec.Deadline.IsInfinite() {
		p.Deadline = now + delay + p.Spec.Deadline
		p.HasDeadline = true
		k.observer.SetDeadline(p.ID, p.Spec.Name, p.Deadline)
	} else {
		p.HasDeadline = false
	}
	if delay > 0 {
		p.State = model.StateWaiting
		p.WaitingOn = WaitDelay
		p.WakeAt = now + delay
	} else {
		k.makeReady(p)
		k.emitRelease(p, now)
	}
	return nil
}

// Stop puts a process in the dormant state and unregisters its deadline.
func (k *Kernel) Stop(id ProcessID) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	p.State = model.StateDormant
	p.WaitingOn = WaitNone
	p.Suspended = false
	p.Started = false
	if p.HasDeadline {
		p.HasDeadline = false
		k.observer.ClearDeadline(p.ID)
	}
	if k.running == id {
		k.running = InvalidProcess
	}
	return nil
}

// Suspend makes a started process ineligible until resumed. A running or
// ready process moves to waiting; a waiting process additionally gets the
// suspended overlay.
func (k *Kernel) Suspend(id ProcessID) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	if !p.Started {
		return fmt.Errorf("%w: %s", ErrNotStarted, p.Spec.Name)
	}
	if p.Suspended {
		return fmt.Errorf("%w: %s", ErrAlreadySuspended, p.Spec.Name)
	}
	p.Suspended = true
	if p.Eligible() {
		p.State = model.StateWaiting
		p.WaitingOn = WaitSuspended
		p.WakeAt = tick.Infinity
		if k.running == id {
			k.running = InvalidProcess
		}
	}
	return nil
}

// Resume lifts the suspension; if the process was not also waiting on
// something else it becomes ready.
func (k *Kernel) Resume(id ProcessID) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	if !p.Suspended {
		return fmt.Errorf("%w: %s", ErrNotSuspended, p.Spec.Name)
	}
	p.Suspended = false
	if p.State == model.StateWaiting && p.WaitingOn == WaitSuspended {
		k.makeReady(p)
	}
	return nil
}

// SetPriority changes the current priority p' of a started process.
func (k *Kernel) SetPriority(id ProcessID, prio model.Priority) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	if !p.Started {
		return fmt.Errorf("%w: %s", ErrNotStarted, p.Spec.Name)
	}
	p.CurrentPriority = prio
	return nil
}

// Replenish postpones the process's deadline time to now + budget
// (Sect. 5.2) and re-registers it with the PAL.
func (k *Kernel) Replenish(id ProcessID, budget tick.Ticks) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	if !p.Started {
		return fmt.Errorf("%w: %s", ErrNotStarted, p.Spec.Name)
	}
	if budget <= 0 {
		return fmt.Errorf("pos: non-positive replenish budget %d", budget)
	}
	if p.Spec.Deadline.IsInfinite() {
		return nil // no deadline to replenish
	}
	p.Deadline = k.now() + budget
	p.HasDeadline = true
	k.observer.SetDeadline(p.ID, p.Spec.Name, p.Deadline)
	return nil
}

// Block transitions the running/ready process into a wait of the given kind,
// optionally bounded by a timeout instant (tick.Infinity = unbounded). The
// APEX layer uses this for semaphores, events, buffers, blackboards and
// ports.
func (k *Kernel) Block(id ProcessID, kind WaitKind, wakeAt tick.Ticks) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	if !p.Eligible() {
		return fmt.Errorf("pos: cannot block %s in state %s", p.Spec.Name, p.State)
	}
	p.State = model.StateWaiting
	p.WaitingOn = kind
	p.WakeAt = wakeAt
	p.TimedOut = false
	if k.running == id {
		k.running = InvalidProcess
	}
	return nil
}

// Wake transitions a waiting process back to ready because the awaited event
// occurred. A suspended process stays waiting under the suspension overlay.
func (k *Kernel) Wake(id ProcessID) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	if p.State != model.StateWaiting {
		return fmt.Errorf("%w: %s is %s", ErrNotWaiting, p.Spec.Name, p.State)
	}
	if p.Suspended {
		p.WaitingOn = WaitSuspended
		p.WakeAt = tick.Infinity
		return nil
	}
	k.makeReady(p)
	return nil
}

// PeriodicWait suspends the process until its next release point (Sect. 5.2
// footnote: "for a periodic process the consecutive release points will be
// separated by the respective period"). On release, the caller (APEX) sets
// the new deadline via CompleteRelease.
func (k *Kernel) PeriodicWait(id ProcessID) error {
	p, err := k.Get(id)
	if err != nil {
		return err
	}
	if !p.Spec.Periodic {
		return fmt.Errorf("%w: %s", ErrNotPeriodic, p.Spec.Name)
	}
	if !p.Eligible() {
		return fmt.Errorf("pos: cannot periodic-wait %s in state %s", p.Spec.Name, p.State)
	}
	now := k.now()
	// The completing activation's nominal release point is the NextRelease
	// computed when it was released (releaseBase for the first activation):
	// publish the activation's response time before recomputing it.
	k.obs.Emit(obs.Event{Time: now, Kind: obs.KindProcessComplete,
		Partition: k.partition, Process: p.Spec.Name, Latency: now - p.NextRelease})
	// Next release strictly after now.
	elapsed := now - p.releaseBase
	n := elapsed/p.Spec.Period + 1
	p.NextRelease = p.releaseBase + n*p.Spec.Period
	p.State = model.StateWaiting
	p.WaitingOn = WaitPeriod
	p.WakeAt = p.NextRelease
	// The current activation completed: its deadline is met. The deadline
	// for the next activation — release point plus time capacity — is
	// registered now (Sect. 5.2 deadline maintenance), so a completed
	// activation can never fire a spurious miss while the process waits.
	if !p.Spec.Deadline.IsInfinite() {
		p.Deadline = p.NextRelease + p.Spec.Deadline
		p.HasDeadline = true
		k.observer.SetDeadline(p.ID, p.Spec.Name, p.Deadline)
	}
	if k.running == id {
		k.running = InvalidProcess
	}
	return nil
}

// ClockAnnounce advances the kernel's view of time to now: time-bounded
// waits that expired are resolved (delays and period releases wake normally;
// object waits wake with TimedOut set).
//
//air:hotpath
func (k *Kernel) ClockAnnounce(now tick.Ticks) {
	for _, p := range k.procs {
		if p.State != model.StateWaiting || p.Suspended {
			continue
		}
		if p.WakeAt.IsInfinite() || p.WakeAt > now {
			continue
		}
		switch p.WaitingOn {
		case WaitDelay, WaitPeriod:
			// Delay expired or release point reached; a periodic
			// activation's deadline was already registered at PeriodicWait
			// time.
			k.makeReady(p)
			k.emitRelease(p, now)
		case WaitSuspended:
			// Unbounded; nothing to do (defensive: WakeAt is Infinity).
		default:
			// Object wait timed out.
			p.TimedOut = true
			k.makeReady(p)
		}
	}
}

// Heir selects the heir process per eq. (14): the highest-priority eligible
// process, ties broken by antiquity in the ready state; under round-robin,
// ready processes rotate. It returns false if Ready_m(t) is empty.
func (k *Kernel) Heir() (*Process, bool) {
	if k.lockLevel > 0 && k.running != InvalidProcess {
		if p := k.procs[k.running-1]; p.Eligible() {
			return p, true
		}
	}
	switch k.policy {
	case PolicyRoundRobin:
		return k.heirRoundRobin()
	default:
		return k.heirPriority()
	}
}

func (k *Kernel) heirPriority() (*Process, bool) {
	var best *Process
	for _, p := range k.procs {
		if !p.Eligible() {
			continue
		}
		if best == nil ||
			p.CurrentPriority < best.CurrentPriority ||
			(p.CurrentPriority == best.CurrentPriority && p.readySeq < best.readySeq) {
			best = p
		}
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

func (k *Kernel) heirRoundRobin() (*Process, bool) {
	n := len(k.procs)
	if n == 0 {
		return nil, false
	}
	for i := 0; i < n; i++ {
		idx := (k.rrCursor + i) % n
		if k.procs[idx].Eligible() {
			k.rrCursor = (idx + 1) % n
			return k.procs[idx], true
		}
	}
	return nil, false
}

// Dispatch marks the heir as running and any previously running process as
// ready (preemption). It returns the dispatched process, or false when the
// partition is idle (no eligible process).
func (k *Kernel) Dispatch() (*Process, bool) {
	heir, ok := k.Heir()
	if !ok {
		if k.running != InvalidProcess {
			k.running = InvalidProcess
		}
		return nil, false
	}
	if k.running != InvalidProcess && k.running != heir.ID {
		prev := k.procs[k.running-1]
		if prev.State == model.StateRunning {
			prev.State = model.StateReady
			k.obs.Emit(obs.Event{Time: k.now(), Kind: obs.KindPreemption,
				Partition: k.partition, Process: prev.Spec.Name})
			// Antiquity is preserved: a preempted process keeps its
			// position among equal-priority peers.
		}
	}
	heir.State = model.StateRunning
	k.running = heir.ID
	return heir, true
}

// Running returns the currently running process, if any.
func (k *Kernel) Running() (*Process, bool) {
	if k.running == InvalidProcess {
		return nil, false
	}
	p := k.procs[k.running-1]
	if p.State != model.StateRunning {
		return nil, false
	}
	return p, true
}

// LockPreemption increments the preemption lock level (ARINC 653
// LOCK_PREEMPTION). While locked, Heir keeps returning the running process.
func (k *Kernel) LockPreemption() int {
	k.lockLevel++
	return k.lockLevel
}

// UnlockPreemption decrements the preemption lock level.
func (k *Kernel) UnlockPreemption() int {
	if k.lockLevel > 0 {
		k.lockLevel--
	}
	return k.lockLevel
}

// LockLevel returns the current preemption lock level.
func (k *Kernel) LockLevel() int { return k.lockLevel }

// DisableClockInterrupts models a guest OS attempting to disable or divert
// system clock interrupts. Per Sect. 2.5, such instructions are wrapped by
// low-level paravirtualized handlers: the attempt is always denied, so a
// non-real-time kernel "cannot undermine the overall time guarantees of the
// system".
func (k *Kernel) DisableClockInterrupts() error {
	return ErrParavirtualized
}

// ResetAll stops every process and clears scheduler state (partition cold
// start). Process table entries survive a warm start in ARINC 653; for cold
// starts the core layer recreates the kernel instead.
func (k *Kernel) ResetAll() {
	for _, p := range k.procs {
		p.State = model.StateDormant
		p.WaitingOn = WaitNone
		p.Suspended = false
		p.Started = false
		if p.HasDeadline {
			p.HasDeadline = false
			k.observer.ClearDeadline(p.ID)
		}
	}
	k.running = InvalidProcess
	k.lockLevel = 0
	k.rrCursor = 0
}

// emitRelease publishes a KindProcessRelease event for an activation that
// just became eligible. Latency carries the ticks remaining to the
// activation's absolute deadline (0 for deadline-free processes; negative
// when the deadline expired while the owning partition was off the
// processor), so the timeline analyzer can reconstruct the deadline instant
// without any allocation on this path.
//
//air:hotpath
func (k *Kernel) emitRelease(p *Process, now tick.Ticks) {
	var remaining tick.Ticks
	if p.HasDeadline {
		remaining = p.Deadline - now
	}
	k.obs.Emit(obs.Event{Time: now, Kind: obs.KindProcessRelease,
		Partition: k.partition, Process: p.Spec.Name, Latency: remaining})
}

//air:hotpath
func (k *Kernel) makeReady(p *Process) {
	p.State = model.StateReady
	p.WaitingOn = WaitNone
	p.WakeAt = 0
	k.seq++
	p.readySeq = k.seq
}
