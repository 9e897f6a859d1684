package pmk

import (
	"errors"
	"fmt"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// Scheduler errors.
var (
	ErrNoSchedules       = errors.New("pmk: no schedules compiled")
	ErrUnknownSchedule   = errors.New("pmk: unknown schedule")
	ErrAlreadyStarted    = errors.New("pmk: scheduler already started")
	ErrNotStarted        = errors.New("pmk: scheduler not started")
	ErrMismatchedModeMTF = errors.New("pmk: schedules disagree on partition set")
)

// ScheduleStatus is the information returned by the ARINC 653 Part 2
// GET_MODULE_SCHEDULE_STATUS service (Sect. 4.2): the time of the last
// schedule switch (0 if none ever occurred), the current schedule, and the
// next schedule (equal to the current one when no change is pending).
type ScheduleStatus struct {
	LastSwitch tick.Ticks
	Current    model.ScheduleID
	Next       model.ScheduleID
}

// Scheduler is the AIR Partition Scheduler featuring mode-based schedules —
// a faithful implementation of Algorithm 1. It is invoked at every system
// clock tick; in the best (and most frequent) case it performs only two
// computations: incrementing the tick counter and testing for a partition
// preemption point.
//
// It runs Algorithm 1 over the flat tables built at Compile time: parallel
// offset/heir arrays cached in the scheduler on every schedule activation,
// and a dense pending-action slice indexed by partition ordinal.
// TestSchedulerLockstep checks it tick by tick against a test-only
// transcription of Algorithm 1 over Points and ChangeActions.
type Scheduler struct {
	schedules []*CompiledSchedule

	// Algorithm 1 state, named as in the paper.
	ticks           tick.Ticks // global system clock tick counter
	currentSchedule model.ScheduleID
	nextSchedule    model.ScheduleID
	lastSwitch      tick.Ticks // lastScheduleSwitch
	tableIterator   int

	heir        Heir
	started     bool
	everSwitch  bool
	switchCount int

	// Hot cache of the active schedule's flat tables, refreshed by activate
	// on Start and on every schedule-switch commit: the Tick fast path reads
	// these three fields and nothing else.
	mtf     tick.Ticks
	offsets []tick.Ticks
	heirs   []Heir

	// Pending actions: dense slice indexed by partition ordinal (0 = none
	// armed), with the ordinal table shared read-only from the compiled
	// schedules.
	partNames    []model.PartitionName
	pendingActs  []model.ScheduleChangeAction
	pendingCount int

	obs obs.Emitter
}

// NewScheduler creates a Scheduler over the compiled schedules. Schedule IDs
// are indices into the slice; index 0 is the initial schedule.
func NewScheduler(schedules []*CompiledSchedule) (*Scheduler, error) {
	if len(schedules) == 0 {
		return nil, ErrNoSchedules
	}
	names := schedules[0].partNames
	for _, cs := range schedules[1:] {
		if len(cs.partNames) != len(names) {
			return nil, ErrMismatchedModeMTF
		}
		for i := range names {
			if cs.partNames[i] != names[i] {
				return nil, ErrMismatchedModeMTF
			}
		}
	}
	s := &Scheduler{
		schedules:   schedules,
		partNames:   names,
		pendingActs: make([]model.ScheduleChangeAction, len(names)),
	}
	s.activate(schedules[0])
	return s, nil
}

// activate caches the flat tables of the schedule now in force.
func (s *Scheduler) activate(cs *CompiledSchedule) {
	s.mtf = cs.MTF
	s.offsets = cs.offsets
	s.heirs = cs.heirs
}

// Start primes the scheduler at tick 0: the first preemption point (offset 0)
// of the initial schedule is taken immediately, as the system bootstrap
// dispatches the first partition before the first clock interrupt.
func (s *Scheduler) Start() (Heir, error) {
	if s.started {
		return Heir{}, ErrAlreadyStarted
	}
	s.started = true
	cs := s.schedules[s.currentSchedule]
	s.activate(cs)
	s.heir = cs.Points[0].Heir
	s.tableIterator = 1 % len(cs.Points)
	return s.heir, nil
}

// Tick is Algorithm 1, executed at every system clock tick. It returns true
// when a partition preemption point was reached (the heir may have changed —
// the Dispatcher must run), false in the frequent fast-path case.
//
//air:hotpath
func (s *Scheduler) Tick() bool {
	// Line 1: increment the global system clock tick counter.
	s.ticks++
	// Line 2: partition preemption point test against ticks elapsed since
	// the last schedule switch — one compare over the cached flat table.
	off := (s.ticks - s.lastSwitch) % s.mtf
	if s.offsets[s.tableIterator] != off {
		return false
	}
	// Line 3: pending schedule switch takes effect only at the end of the
	// MTF.
	if s.currentSchedule != s.nextSchedule && off == 0 {
		s.commitSwitch() //air:allow(call): schedule switches are rare mode changes, not per-tick work
	}
	// Line 8: select the heir partition.
	s.heir = s.heirs[s.tableIterator]
	// Line 9: advance the table iterator modulo the number of partition
	// preemption points.
	s.tableIterator++
	if s.tableIterator == len(s.offsets) {
		s.tableIterator = 0
	}
	s.obs.Emit(obs.Event{Time: s.ticks, Kind: obs.KindHeirSelection, Partition: s.heir.Partition})
	return true
}

// commitSwitch performs Algorithm 1 lines 4–6 and arms the dense
// per-partition restart actions for the new schedule; the Dispatcher
// performs each partition's action the first time that partition is
// dispatched under the new schedule (Sect. 4.3).
func (s *Scheduler) commitSwitch() {
	s.currentSchedule = s.nextSchedule
	s.lastSwitch = s.ticks
	s.tableIterator = 0
	s.everSwitch = true
	s.switchCount++
	cs := s.schedules[s.currentSchedule]
	s.activate(cs)
	for ord, action := range cs.actionByOrd {
		if action == 0 {
			continue
		}
		if s.pendingActs[ord] == 0 {
			s.pendingCount++
		}
		s.pendingActs[ord] = action
	}
}

// AttachObs publishes every partition preemption point's heir selection as
// a KindHeirSelection event on the module's observability spine (the
// partition field is empty when the heir is the idle window).
func (s *Scheduler) AttachObs(em obs.Emitter) { s.obs = em }

// Heir returns the current heir partition.
func (s *Scheduler) Heir() Heir { return s.heir }

// Ticks returns the global system clock tick counter.
func (s *Scheduler) Ticks() tick.Ticks { return s.ticks }

// RequestSwitch stores the identifier of the schedule that will start
// executing at the top of the next MTF — the SET_MODULE_SCHEDULE APEX
// service (Sect. 4.2): "the immediate result is only that of storing the
// identifier of the next schedule".
func (s *Scheduler) RequestSwitch(id model.ScheduleID) error {
	if id < 0 || int(id) >= len(s.schedules) {
		return fmt.Errorf("%w: %d", ErrUnknownSchedule, id)
	}
	s.nextSchedule = id
	return nil
}

// Status implements GET_MODULE_SCHEDULE_STATUS (Sect. 4.2).
func (s *Scheduler) Status() ScheduleStatus {
	last := tick.Ticks(0)
	if s.everSwitch {
		last = s.lastSwitch
	}
	return ScheduleStatus{
		LastSwitch: last,
		Current:    s.currentSchedule,
		Next:       s.nextSchedule,
	}
}

// Current returns the compiled schedule currently in force.
func (s *Scheduler) Current() *CompiledSchedule {
	return s.schedules[s.currentSchedule]
}

// ScheduleCount returns the number of compiled schedules.
func (s *Scheduler) ScheduleCount() int { return len(s.schedules) }

// SwitchCount returns how many schedule switches became effective.
func (s *Scheduler) SwitchCount() int { return s.switchCount }

// ConsumePendingAction returns and clears the pending schedule change action
// for a partition, if any. The Dispatcher calls this when the partition is
// first dispatched after a switch.
func (s *Scheduler) ConsumePendingAction(p model.PartitionName) (model.ScheduleChangeAction, bool) {
	for ord, n := range s.partNames {
		if n != p {
			continue
		}
		if s.pendingActs[ord] == 0 {
			return 0, false
		}
		action := s.pendingActs[ord]
		s.pendingActs[ord] = 0
		s.pendingCount--
		return action, true
	}
	return 0, false
}

// PendingActionCount returns the number of partitions with unconsumed change
// actions (those not yet dispatched since the last switch).
func (s *Scheduler) PendingActionCount() int { return s.pendingCount }

// Clone returns a deep copy of the scheduler's mutable Algorithm 1 state.
// The compiled schedules (and the flat tables inside them) are immutable
// after Compile and shared read-only with the clone; the observability
// emitter is NOT carried over — the forked module attaches its own.
func (s *Scheduler) Clone() *Scheduler {
	c := *s
	c.pendingActs = make([]model.ScheduleChangeAction, len(s.pendingActs))
	copy(c.pendingActs, s.pendingActs)
	c.obs = obs.Emitter{}
	return &c
}
