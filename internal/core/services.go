package core

import (
	"errors"
	"fmt"

	"air/internal/apex"
	"air/internal/hm"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/pos"
	"air/internal/tick"
)

// stopSentinel is panicked by a process terminating itself (StopSelf,
// self-affecting recovery); the spawn wrapper converts it into a yieldDone.
type stopSentinel struct{}

// Services is the APEX interface instance of one partition (paper Sect. 2.3)
// bound, when invoked from application code, to the calling process. Service
// calls from initialization or error-handler context (kernel context) have
// no process binding: blocking services return InvalidMode there.
type Services struct {
	mod *Module
	pt  *Partition
	pid pos.ProcessID
	rt  *procRuntime
}

// --- handshake helpers -----------------------------------------------------

func (sv *Services) inProcess() bool {
	return sv.rt != nil && sv.pid != pos.InvalidProcess
}

// blockSelf parks the calling process after the kernel marked it waiting.
func (sv *Services) blockSelf() {
	sv.rt.yield <- yieldBlocked
	sv.rt.waitGrant()
}

func (sv *Services) myProc() *pos.Process {
	p, err := sv.pt.kernel.Get(sv.pid)
	if err != nil {
		return nil
	}
	return p
}

func (sv *Services) myName() string {
	if p := sv.myProc(); p != nil {
		return p.Spec.Name
	}
	return ""
}

// terminateSelf stops the calling process (it becomes dormant) and ends its
// goroutine; never returns.
func (sv *Services) terminateSelf() {
	_ = sv.pt.kernel.Stop(sv.pid)
	sv.rt.alive = false
	panic(stopSentinel{})
}

// wakeDeadline converts a relative timeout into the absolute wake instant.
func (sv *Services) wakeDeadline(timeout tick.Ticks) tick.Ticks {
	if timeout.IsInfinite() {
		return tick.Infinity
	}
	return sv.mod.now + timeout
}

// --- time management --------------------------------------------------------

// GetTime implements GET_TIME: the global system clock tick counter.
func (sv *Services) GetTime() tick.Ticks { return sv.mod.now }

// Compute consumes n ticks of processor time — the simulation's model of
// application computation. It is the only way application code spends time.
func (sv *Services) Compute(n tick.Ticks) {
	if !sv.inProcess() {
		return
	}
	for i := tick.Ticks(0); i < n; i++ {
		sv.rt.yield <- yieldConsumed
		sv.rt.waitGrant()
	}
}

// TimedWait implements TIMED_WAIT: the process waits for at least the given
// delay.
func (sv *Services) TimedWait(delay tick.Ticks) apex.ReturnCode {
	if !sv.inProcess() {
		return apex.InvalidMode
	}
	if delay < 0 || delay.IsInfinite() {
		return apex.InvalidParam
	}
	if err := sv.pt.kernel.Block(sv.pid, pos.WaitDelay, sv.mod.now+delay); err != nil {
		return apex.InvalidMode
	}
	sv.blockSelf()
	return apex.NoError
}

// PeriodicWait implements PERIODIC_WAIT: the periodic process suspends until
// its next release point (Sect. 5.2).
func (sv *Services) PeriodicWait() apex.ReturnCode {
	if !sv.inProcess() {
		return apex.InvalidMode
	}
	if err := sv.pt.kernel.PeriodicWait(sv.pid); err != nil {
		if errors.Is(err, pos.ErrNotPeriodic) {
			return apex.InvalidMode
		}
		return apex.InvalidMode
	}
	sv.blockSelf()
	return apex.NoError
}

// Replenish implements REPLENISH: the process's deadline time is postponed
// to now + budget (Sect. 5.2, Fig. 6).
func (sv *Services) Replenish(budget tick.Ticks) apex.ReturnCode {
	if !sv.inProcess() {
		return apex.InvalidMode
	}
	if budget <= 0 || budget.IsInfinite() {
		return apex.InvalidParam
	}
	if err := sv.pt.kernel.Replenish(sv.pid, budget); err != nil {
		return apex.InvalidMode
	}
	return apex.NoError
}

// --- process management ------------------------------------------------------

// CreateProcess implements CREATE_PROCESS. Processes may only be created
// while the partition is initializing (coldStart/warmStart mode). Creating a
// process that already exists with the same attributes returns NoAction with
// the existing ID, making warm-start initialization idempotent.
func (sv *Services) CreateProcess(spec model.TaskSpec, body ProcessBody) (pos.ProcessID, apex.ReturnCode) {
	var fb ForkableBody
	if body != nil {
		fb.Run = func(sv *Services, _ any) { body(sv) }
	}
	return sv.createProcess(spec, fb)
}

// CreateForkableProcess implements CREATE_PROCESS for a body written in the
// snapshot/fork-portable form: explicit state in a cell the runtime can
// deep-copy (ForkableBody) instead of closure variables it cannot. The
// rules are identical to CreateProcess — initialization mode only,
// idempotent re-registration across warm starts. Only processes created
// through this entry point survive Module.Snapshot validation while live.
func (sv *Services) CreateForkableProcess(spec model.TaskSpec, fb ForkableBody) (pos.ProcessID, apex.ReturnCode) {
	if fb.New == nil || fb.Clone == nil || fb.Run == nil {
		return pos.InvalidProcess, apex.InvalidParam
	}
	return sv.createProcess(spec, fb)
}

// createProcess registers fb as the body of the process spec names,
// creating the process or, on an identical re-registration, replacing its
// body.
func (sv *Services) createProcess(spec model.TaskSpec, fb ForkableBody) (pos.ProcessID, apex.ReturnCode) {
	if sv.pt.mode == model.ModeNormal {
		return pos.InvalidProcess, apex.InvalidMode
	}
	if existing, err := sv.pt.kernel.Lookup(spec.Name); err == nil {
		if existing.Spec != spec {
			return pos.InvalidProcess, apex.InvalidConfig
		}
		sv.pt.bodies[existing.ID] = fb
		return existing.ID, apex.NoAction
	}
	id, err := sv.pt.kernel.Create(spec)
	if err != nil {
		return pos.InvalidProcess, apex.InvalidParam
	}
	sv.pt.bodies[id] = fb
	return id, apex.NoError
}

// StartProcess implements START for another (or the calling) process: the
// dormant process is initialized and becomes ready; its deadline is
// registered with the PAL (Fig. 6).
func (sv *Services) StartProcess(name string) apex.ReturnCode {
	proc, err := sv.pt.kernel.Lookup(name)
	if err != nil {
		return apex.InvalidParam
	}
	if err := sv.pt.kernel.Start(proc.ID); err != nil {
		return apex.NoAction // not dormant
	}
	sv.pt.spawn(proc.ID)
	return apex.NoError
}

// DelayedStartProcess implements DELAYED_START.
func (sv *Services) DelayedStartProcess(name string, delay tick.Ticks) apex.ReturnCode {
	proc, err := sv.pt.kernel.Lookup(name)
	if err != nil {
		return apex.InvalidParam
	}
	if delay < 0 || delay.IsInfinite() {
		return apex.InvalidParam
	}
	if err := sv.pt.kernel.DelayedStart(proc.ID, delay); err != nil {
		return apex.NoAction
	}
	sv.pt.spawn(proc.ID)
	return apex.NoError
}

// StopProcess implements STOP for another process: it becomes dormant and
// its deadline is unregistered. Stopping the calling process itself is
// StopSelf.
func (sv *Services) StopProcess(name string) apex.ReturnCode {
	proc, err := sv.pt.kernel.Lookup(name)
	if err != nil {
		return apex.InvalidParam
	}
	if sv.inProcess() && proc.ID == sv.pid {
		sv.StopSelf()
		return apex.NoError // unreachable; StopSelf never returns
	}
	if proc.State == model.StateDormant {
		return apex.NoAction
	}
	sv.pt.killProcess(proc.ID)
	return apex.NoError
}

// StopSelf implements STOP_SELF; it never returns.
func (sv *Services) StopSelf() {
	if !sv.inProcess() {
		return
	}
	sv.terminateSelf()
}

// SuspendProcess implements SUSPEND for another process.
func (sv *Services) SuspendProcess(name string) apex.ReturnCode {
	proc, err := sv.pt.kernel.Lookup(name)
	if err != nil {
		return apex.InvalidParam
	}
	if err := sv.pt.kernel.Suspend(proc.ID); err != nil {
		return apex.InvalidMode
	}
	return apex.NoError
}

// SuspendSelf implements SUSPEND_SELF (unbounded): the process waits until
// another process resumes it.
func (sv *Services) SuspendSelf() apex.ReturnCode {
	if !sv.inProcess() {
		return apex.InvalidMode
	}
	if err := sv.pt.kernel.Suspend(sv.pid); err != nil {
		return apex.InvalidMode
	}
	sv.blockSelf()
	return apex.NoError
}

// ResumeProcess implements RESUME.
func (sv *Services) ResumeProcess(name string) apex.ReturnCode {
	proc, err := sv.pt.kernel.Lookup(name)
	if err != nil {
		return apex.InvalidParam
	}
	if err := sv.pt.kernel.Resume(proc.ID); err != nil {
		return apex.InvalidMode
	}
	return apex.NoError
}

// SetPriority implements SET_PRIORITY: changes the current priority p'.
func (sv *Services) SetPriority(name string, prio model.Priority) apex.ReturnCode {
	proc, err := sv.pt.kernel.Lookup(name)
	if err != nil {
		return apex.InvalidParam
	}
	if err := sv.pt.kernel.SetPriority(proc.ID, prio); err != nil {
		return apex.InvalidMode
	}
	return apex.NoError
}

// GetProcessID implements GET_PROCESS_ID.
func (sv *Services) GetProcessID(name string) (pos.ProcessID, apex.ReturnCode) {
	proc, err := sv.pt.kernel.Lookup(name)
	if err != nil {
		return pos.InvalidProcess, apex.InvalidConfig
	}
	return proc.ID, apex.NoError
}

// GetMyID implements GET_MY_ID.
func (sv *Services) GetMyID() (pos.ProcessID, apex.ReturnCode) {
	if !sv.inProcess() {
		return pos.InvalidProcess, apex.InvalidMode
	}
	return sv.pid, apex.NoError
}

// MyName returns the calling process's name ("" in kernel context).
func (sv *Services) MyName() string { return sv.myName() }

// GetProcessStatus implements GET_PROCESS_STATUS: the status S(t) of
// eq. (12) plus static attributes.
func (sv *Services) GetProcessStatus(name string) (apex.ProcessStatus, apex.ReturnCode) {
	proc, err := sv.pt.kernel.Lookup(name)
	if err != nil {
		return apex.ProcessStatus{}, apex.InvalidConfig
	}
	return apex.ProcessStatus{
		Name:            proc.Spec.Name,
		State:           proc.State,
		BasePriority:    proc.Spec.BasePriority,
		CurrentPriority: proc.CurrentPriority,
		DeadlineTime:    proc.Deadline,
		HasDeadline:     proc.HasDeadline,
		Period:          proc.Spec.Period,
		TimeCapacity:    proc.Spec.Deadline,
		Periodic:        proc.Spec.Periodic,
	}, apex.NoError
}

// LockPreemption / UnlockPreemption implement LOCK_PREEMPTION and
// UNLOCK_PREEMPTION on the partition's POS scheduler.
func (sv *Services) LockPreemption() int { return sv.pt.kernel.LockPreemption() }

// UnlockPreemption decrements the preemption lock level.
func (sv *Services) UnlockPreemption() int { return sv.pt.kernel.UnlockPreemption() }

// DisableClockInterrupts models a guest OS attempting to disable the system
// clock; the paravirtualization layer always denies it (Sect. 2.5).
func (sv *Services) DisableClockInterrupts() error {
	return sv.pt.kernel.DisableClockInterrupts()
}

// --- partition management ----------------------------------------------------

// GetPartitionStatus implements GET_PARTITION_STATUS.
func (sv *Services) GetPartitionStatus() apex.PartitionStatus {
	return apex.PartitionStatus{
		Name:       sv.pt.name,
		Mode:       sv.pt.mode,
		StartCount: sv.pt.startCount,
		System:     sv.pt.system,
		LockLevel:  sv.pt.kernel.LockLevel(),
	}
}

// SetPartitionMode implements SET_PARTITION_MODE. Setting NORMAL ends
// initialization and enables process scheduling. IDLE shuts the partition
// down; COLD_START and WARM_START restart it. Restart/shutdown requested
// from a process terminates the calling process as part of the transition.
func (sv *Services) SetPartitionMode(mode model.OperatingMode) apex.ReturnCode {
	switch mode {
	case model.ModeNormal:
		if sv.pt.mode == model.ModeNormal {
			return apex.NoAction
		}
		sv.pt.mode = model.ModeNormal
		return apex.NoError
	case model.ModeIdle, model.ModeColdStart, model.ModeWarmStart:
		if !sv.inProcess() {
			// From init/handler context a restart request would recurse
			// into init; only idle is applicable.
			if mode == model.ModeIdle {
				sv.pt.stop()
				return apex.NoError
			}
			return apex.InvalidMode
		}
		sv.pt.deferredMode = mode
		sv.terminateSelf()
		return apex.NoError // unreachable
	default:
		return apex.InvalidParam
	}
}

// --- module schedule services (ARINC 653 Part 2, Sect. 4.2) -------------------

// SetModuleSchedule implements SET_MODULE_SCHEDULE: requests the schedule
// that will start executing at the top of the next MTF. Only system
// partitions are authorized.
func (sv *Services) SetModuleSchedule(id model.ScheduleID) apex.ReturnCode {
	if !sv.pt.system {
		return apex.InvalidConfig
	}
	st := sv.mod.sched.Status()
	if err := sv.mod.sched.RequestSwitch(id); err != nil {
		return apex.InvalidParam
	}
	if st.Next != id {
		sv.mod.traceEvent(Event{Time: sv.mod.now, Kind: obs.KindScheduleSwitch,
			Partition: sv.pt.name,
			Detail:    "requested schedule " + sv.scheduleName(id)})
	}
	return apex.NoError
}

// SetModuleScheduleByName resolves a schedule name and requests the switch.
func (sv *Services) SetModuleScheduleByName(name string) apex.ReturnCode {
	_, id, ok := sv.mod.sys.ScheduleByName(name)
	if !ok {
		return apex.InvalidParam
	}
	return sv.SetModuleSchedule(id)
}

// GetModuleScheduleStatus implements GET_MODULE_SCHEDULE_STATUS.
func (sv *Services) GetModuleScheduleStatus() apex.ModuleScheduleStatus {
	return sv.mod.scheduleStatus()
}

func (m *Module) scheduleStatus() apex.ModuleScheduleStatus {
	st := m.sched.Status()
	return apex.ModuleScheduleStatus{
		LastSwitch:  st.LastSwitch,
		Current:     st.Current,
		Next:        st.Next,
		CurrentName: m.sys.Schedules[st.Current].Name,
		NextName:    m.sys.Schedules[st.Next].Name,
	}
}

func (sv *Services) scheduleName(id model.ScheduleID) string {
	if s, ok := sv.mod.sys.Schedule(id); ok {
		return s.Name
	}
	return "?"
}

// --- health monitoring services ------------------------------------------------

// ReportApplicationMessage implements REPORT_APPLICATION_MESSAGE: the
// message is recorded in the module trace.
func (sv *Services) ReportApplicationMessage(msg string) apex.ReturnCode {
	sv.mod.traceEvent(Event{Time: sv.mod.now, Kind: obs.KindApplicationMessage,
		Partition: sv.pt.name, Process: sv.myName(), Detail: msg})
	return apex.NoError
}

// RaiseApplicationError implements RAISE_APPLICATION_ERROR: a process-level
// APPLICATION_ERROR is reported to health monitoring and the decided
// recovery action applied. If the action affects the calling process (stop,
// restart, partition restart), the call does not return.
func (sv *Services) RaiseApplicationError(msg string) apex.ReturnCode {
	name := sv.myName()
	decision := sv.mod.health.ReportProcess(sv.pt.name, name, hm.ErrApplicationError, msg)
	switch decision.Action {
	case hm.ActionIgnore:
		return apex.NoError
	case hm.ActionInvokeHandler:
		if sv.pt.handler != nil {
			sv.pt.handler(sv.pt.services(pos.InvalidProcess, nil), decision.Event)
		}
		return apex.NoError
	default:
		if !sv.inProcess() {
			sv.pt.applyProcessDecision(name, decision)
			return apex.NoError
		}
		sv.pt.pendingFaultDecision = &faultDecision{name: name, decision: decision}
		sv.terminateSelf()
		return apex.NoError // unreachable
	}
}

// CreateErrorHandler implements CREATE_ERROR_HANDLER: installs the
// partition's application error handler (Sect. 2.4: "process level errors
// will cause an application error handler to be invoked").
func (sv *Services) CreateErrorHandler(handler ErrorHandler) apex.ReturnCode {
	if handler == nil {
		return apex.InvalidParam
	}
	sv.pt.handler = handler
	sv.mod.health.SetHandlerInstalled(sv.pt.name, true)
	return apex.NoError
}

// --- spatial partitioning services ---------------------------------------------

// MemWrite stores data at a virtual address of the calling partition's
// addressing space, at application privilege. A spatial partitioning fault
// is confined: it is reported to health monitoring as a partition-level
// MEMORY_VIOLATION and the decided recovery action applied.
func (sv *Services) MemWrite(va mmu.VirtAddr, data []byte) apex.ReturnCode {
	return sv.memAccess(func() error {
		return sv.mod.memory.WriteIn(sv.pt.name, va, data, mmu.PrivApp)
	})
}

// MemRead loads len(buf) bytes from a virtual address of the calling
// partition's addressing space, at application privilege.
func (sv *Services) MemRead(va mmu.VirtAddr, buf []byte) apex.ReturnCode {
	return sv.memAccess(func() error {
		return sv.mod.memory.ReadIn(sv.pt.name, va, buf, mmu.PrivApp)
	})
}

// StackProbe models a stack frame allocation of the given size by the
// calling process, checked against the partition's stack section. Exceeding
// it raises a process-level STACK_OVERFLOW to health monitoring — one of the
// error classes the paper's Sect. 2.4 lists — whose recovery action is
// applied like any other process-level error; the probe call does not return
// if the action terminates the caller.
func (sv *Services) StackProbe(bytes int) apex.ReturnCode {
	if !sv.inProcess() {
		return apex.InvalidMode
	}
	if bytes < 0 {
		return apex.InvalidParam
	}
	sv.rt.stackUsed += bytes
	if sv.rt.stackUsed <= sv.pt.stackBytes() {
		return apex.NoError
	}
	name := sv.myName()
	decision := sv.mod.health.ReportProcess(sv.pt.name, name, hm.ErrStackOverflow,
		fmt.Sprintf("stack usage %d exceeds stack section %d bytes",
			sv.rt.stackUsed, sv.pt.stackBytes()))
	switch decision.Action {
	case hm.ActionIgnore:
		return apex.InvalidConfig
	case hm.ActionInvokeHandler:
		if sv.pt.handler != nil {
			sv.pt.handler(sv.pt.services(pos.InvalidProcess, nil), decision.Event)
		}
		return apex.InvalidConfig
	default:
		sv.pt.pendingFaultDecision = &faultDecision{name: name, decision: decision}
		sv.terminateSelf()
		return apex.InvalidConfig // unreachable
	}
}

// StackRelease models returning stack frames (e.g. on leaving a deep call
// chain).
func (sv *Services) StackRelease(bytes int) apex.ReturnCode {
	if !sv.inProcess() {
		return apex.InvalidMode
	}
	if bytes < 0 {
		return apex.InvalidParam
	}
	sv.rt.stackUsed -= bytes
	if sv.rt.stackUsed < 0 {
		sv.rt.stackUsed = 0
	}
	return apex.NoError
}

func (sv *Services) memAccess(access func() error) apex.ReturnCode {
	err := access()
	if err == nil {
		return apex.NoError
	}
	var fault *mmu.Fault
	if !errors.As(err, &fault) {
		return apex.InvalidConfig
	}
	sv.mod.traceEvent(Event{Time: sv.mod.now, Kind: obs.KindMemoryViolation,
		Partition: sv.pt.name, Process: sv.myName(), Detail: fault.Error()})
	decision := sv.mod.health.ReportPartition(sv.pt.name, hm.ErrMemoryViolation, fault.Error())
	if !sv.inProcess() {
		sv.pt.applyPartitionDecision(decision)
		return apex.InvalidConfig
	}
	switch decision.Action {
	case hm.ActionIgnore, hm.ActionInvokeHandler:
		return apex.InvalidConfig
	default:
		sv.pt.pendingPartitionDecision = &decision
		sv.terminateSelf()
		return apex.InvalidConfig // unreachable
	}
}
