// Package hm implements the AIR Health Monitor (paper Sect. 2.4 and 5): it
// handles hardware and software errors — deadline misses, memory protection
// violations, application errors — isolating each error within its domain of
// occurrence. Process-level errors cause the application error handler to be
// invoked; partition-level errors trigger a response action defined at system
// integration time; module-level errors may stop or reinitialise the system.
package hm

import (
	"fmt"
	"sync"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// ErrorCode identifies a detected error condition, following the ARINC 653
// health-monitoring error classification.
type ErrorCode int

// Error codes. ErrDeadlineMissed is the code raised by the process deadline
// violation monitoring mechanism of Sect. 5.
const (
	ErrDeadlineMissed ErrorCode = iota + 1
	ErrApplicationError
	ErrNumericError
	ErrIllegalRequest
	ErrStackOverflow
	ErrMemoryViolation
	ErrHardwareFault
	ErrPowerFail
	ErrConfigError
	// ErrPartitionHang is raised by the kernel's liveness watchdog when a
	// partition consumes its processor windows without any process making
	// progress (completing or blocking) — a hang the deadline monitoring of
	// Sect. 5 cannot see because no deadline-carrying process ever yields.
	ErrPartitionHang
)

// String renders the error code in ARINC 653 spelling.
func (c ErrorCode) String() string {
	switch c {
	case ErrDeadlineMissed:
		return "DEADLINE_MISSED"
	case ErrApplicationError:
		return "APPLICATION_ERROR"
	case ErrNumericError:
		return "NUMERIC_ERROR"
	case ErrIllegalRequest:
		return "ILLEGAL_REQUEST"
	case ErrStackOverflow:
		return "STACK_OVERFLOW"
	case ErrMemoryViolation:
		return "MEMORY_VIOLATION"
	case ErrHardwareFault:
		return "HARDWARE_FAULT"
	case ErrPowerFail:
		return "POWER_FAIL"
	case ErrConfigError:
		return "CONFIG_ERROR"
	case ErrPartitionHang:
		return "PARTITION_HANG"
	default:
		return fmt.Sprintf("ErrorCode(%d)", int(c))
	}
}

// Level is the error level: the domain the error impacts and therefore the
// domain in which it must be contained.
type Level int

// Error levels per ARINC 653.
const (
	LevelProcess Level = iota + 1
	LevelPartition
	LevelModule
)

// String renders the level.
func (l Level) String() string {
	switch l {
	case LevelProcess:
		return "PROCESS"
	case LevelPartition:
		return "PARTITION"
	case LevelModule:
		return "MODULE"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Action is a recovery action, covering the possibilities the paper lists in
// Sect. 5 for deadline violations and the partition/module responses of
// ARINC 653.
type Action int

// Recovery actions.
const (
	// ActionIgnore logs the error but takes no recovery action.
	ActionIgnore Action = iota + 1
	// ActionLogThreshold logs the error a configured number of times before
	// escalating to the Escalation action.
	ActionLogThreshold
	// ActionInvokeHandler invokes the partition's application error
	// handler; if none exists, the Escalation action applies.
	ActionInvokeHandler
	// ActionStopProcess stops the faulty process, assuming the partition
	// will detect this and recover.
	ActionStopProcess
	// ActionRestartProcess stops the faulty process and reinitialises it
	// from the entry address.
	ActionRestartProcess
	// ActionWarmStartPartition restarts the partition in warmStart mode.
	ActionWarmStartPartition
	// ActionColdStartPartition restarts the partition in coldStart mode.
	ActionColdStartPartition
	// ActionStopPartition shuts the partition down (idle mode).
	ActionStopPartition
	// ActionResetModule reinitialises the entire system.
	ActionResetModule
	// ActionShutdownModule stops the entire system.
	ActionShutdownModule
)

// String renders the action.
func (a Action) String() string {
	switch a {
	case ActionIgnore:
		return "IGNORE"
	case ActionLogThreshold:
		return "LOG_THRESHOLD"
	case ActionInvokeHandler:
		return "INVOKE_HANDLER"
	case ActionStopProcess:
		return "STOP_PROCESS"
	case ActionRestartProcess:
		return "RESTART_PROCESS"
	case ActionWarmStartPartition:
		return "WARM_START_PARTITION"
	case ActionColdStartPartition:
		return "COLD_START_PARTITION"
	case ActionStopPartition:
		return "STOP_PARTITION"
	case ActionResetModule:
		return "RESET_MODULE"
	case ActionShutdownModule:
		return "SHUTDOWN_MODULE"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Rule configures the response to one error code at one level.
type Rule struct {
	Action Action
	// Threshold applies to ActionLogThreshold: the number of occurrences
	// logged before Escalation is applied.
	Threshold int
	// Escalation is the action applied once Threshold is exceeded, or when
	// ActionInvokeHandler finds no handler installed.
	Escalation Action
}

// Table maps error codes to rules for one level of one containment domain.
type Table map[ErrorCode]Rule

// Event is one health-monitoring log record.
type Event struct {
	Time      tick.Ticks
	Code      ErrorCode
	Level     Level
	Partition model.PartitionName
	Process   string // empty for partition/module level errors
	Message   string
	Action    Action // the action that was decided
}

// String renders the event as a log line.
func (e Event) String() string {
	who := string(e.Partition)
	if e.Process != "" {
		who += "/" + e.Process
	}
	return fmt.Sprintf("[%6d] HM %s level=%s at=%s action=%s %s",
		e.Time, e.Code, e.Level, who, e.Action, e.Message)
}

// Decision is what the monitor resolved for a reported error: the action the
// kernel must carry out.
type Decision struct {
	Action Action
	Event  Event
}

// Config configures a Monitor. Partition- and process-level rule tables
// are installed per partition with SetPartitionTable and SetProcessTable,
// the way a module registers each partition it hosts.
type Config struct {
	// Now supplies the current logical time for event stamping.
	Now func() tick.Ticks
	// ModuleTable handles module-level errors. Missing codes default to
	// ActionShutdownModule (fail-stop).
	ModuleTable Table
	// Obs publishes every recorded event on the module's observability
	// spine as a structured KindHMReport record (code/level/action). The
	// zero Emitter discards, so standalone monitors need no spine.
	Obs obs.Emitter
}

// Monitor is the AIR Health Monitor instance for a module.
type Monitor struct {
	mu  sync.Mutex
	now func() tick.Ticks
	//air:guard(mu)
	module Table
	//air:guard(mu)
	partition map[model.PartitionName]Table
	//air:guard(mu)
	process map[model.PartitionName]Table
	//air:guard(mu)
	counters map[counterKey]int
	//air:guard(mu)
	reported map[ErrorCode]uint64
	//air:guard(mu)
	events []Event
	//air:guard(mu)
	handlers map[model.PartitionName]bool // error handler installed?
	obs      obs.Emitter
}

type counterKey struct {
	partition model.PartitionName
	process   string
	code      ErrorCode
	level     Level
}

// DefaultMaxLog bounds the event log, which retains the most recent
// records: large enough to retain every record of any bounded scenario,
// small enough that a restart storm sustained for millions of ticks cannot
// exhaust memory through the log.
const DefaultMaxLog = 4096

// New creates a Monitor. A nil Now defaults to a constant-zero clock, which
// is only appropriate in tests.
func New(cfg Config) *Monitor {
	now := cfg.Now
	if now == nil {
		now = func() tick.Ticks { return 0 }
	}
	return &Monitor{
		now:      now,
		module:   cfg.ModuleTable,
		counters: make(map[counterKey]int),
		reported: make(map[ErrorCode]uint64),
		handlers: make(map[model.PartitionName]bool),
		obs:      cfg.Obs,
	}
}

// SetPartitionTable installs or replaces the partition-level rule table for
// one partition. Missing codes default to ActionColdStartPartition. A
// module registers each partition it hosts this way, so one monitor shared
// by the cores of a multicore module learns every core's partitions.
func (m *Monitor) SetPartitionTable(p model.PartitionName, t Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.partition == nil {
		m.partition = make(map[model.PartitionName]Table)
	}
	m.partition[p] = t
}

// SetProcessTable installs or replaces the process-level rule table for one
// partition. The table applies when no application error handler is
// installed and decides whether a handler is consulted at all; missing
// codes default to ActionInvokeHandler escalating to ActionStopProcess.
func (m *Monitor) SetProcessTable(p model.PartitionName, t Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.process == nil {
		m.process = make(map[model.PartitionName]Table)
	}
	m.process[p] = t
}

// SetHandlerInstalled records whether partition p currently has an
// application error handler (APEX CREATE_ERROR_HANDLER).
func (m *Monitor) SetHandlerInstalled(p model.PartitionName, installed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[p] = installed
}

// HandlerInstalled reports whether partition p has an error handler.
func (m *Monitor) HandlerInstalled(p model.PartitionName) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.handlers[p]
}

// ReportProcess reports a process-level error (e.g. a deadline miss detected
// by the PAL, Sect. 5). The returned decision tells the kernel what to do:
// invoke the error handler, stop/restart the process, or escalate.
func (m *Monitor) ReportProcess(p model.PartitionName, process string, code ErrorCode, msg string) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	rule := m.lookup(m.process[p], code, Rule{
		Action:     ActionInvokeHandler,
		Escalation: ActionStopProcess,
	})
	action := m.resolve(rule, counterKey{p, process, code, LevelProcess}, m.handlers[p])
	return m.record(Event{
		Time: m.now(), Code: code, Level: LevelProcess,
		Partition: p, Process: process, Message: msg, Action: action,
	})
}

// ReportPartition reports a partition-level error (e.g. a memory protection
// violation attributed to the partition domain).
func (m *Monitor) ReportPartition(p model.PartitionName, code ErrorCode, msg string) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	rule := m.lookup(m.partition[p], code, Rule{Action: ActionColdStartPartition})
	action := m.resolve(rule, counterKey{p, "", code, LevelPartition}, false)
	return m.record(Event{
		Time: m.now(), Code: code, Level: LevelPartition,
		Partition: p, Message: msg, Action: action,
	})
}

// ReportModule reports a module-level error (e.g. a hardware fault).
func (m *Monitor) ReportModule(code ErrorCode, msg string) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	rule := m.lookup(m.module, code, Rule{Action: ActionShutdownModule})
	action := m.resolve(rule, counterKey{"", "", code, LevelModule}, false)
	return m.record(Event{
		Time: m.now(), Code: code, Level: LevelModule,
		Message: msg, Action: action,
	})
}

func (m *Monitor) lookup(t Table, code ErrorCode, def Rule) Rule {
	if t != nil {
		if r, ok := t[code]; ok {
			return r
		}
	}
	return def
}

// resolve applies threshold and handler-availability logic to a rule
// (m.mu held).
//
//air:locked(mu)
func (m *Monitor) resolve(rule Rule, key counterKey, handlerInstalled bool) Action {
	action := rule.Action
	if action == ActionLogThreshold {
		m.counters[key]++
		if m.counters[key] <= rule.Threshold {
			return ActionIgnore
		}
		action = rule.Escalation
		if action == 0 {
			action = ActionIgnore
		}
	}
	if action == ActionInvokeHandler && !handlerInstalled {
		action = rule.Escalation
		if action == 0 {
			action = ActionStopProcess
		}
	}
	return action
}

// record logs the decided event, bumps the reported counter and publishes
// the record on the spine (m.mu held).
//
//air:locked(mu)
func (m *Monitor) record(e Event) Decision {
	m.reported[e.Code]++
	m.events = append(m.events, e)
	if len(m.events) > DefaultMaxLog {
		m.events = m.events[len(m.events)-DefaultMaxLog:]
	}
	// The code/level/action strings are constant per enum value, so this
	// publication allocates nothing on the hot path.
	m.obs.Emit(obs.Event{
		Time:      e.Time,
		Kind:      obs.KindHMReport,
		Partition: e.Partition,
		Process:   e.Process,
		Detail:    e.Message,
		Code:      e.Code.String(),
		Level:     e.Level.String(),
		Action:    e.Action.String(),
	})
	return Decision{Action: e.Action, Event: e}
}

// Events returns a copy of the event log.
func (m *Monitor) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// EventsFor returns the logged events for one partition.
func (m *Monitor) EventsFor(p model.PartitionName) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, e := range m.events {
		if e.Partition == p {
			out = append(out, e)
		}
	}
	return out
}

// Reported returns the monotonic total of reports recorded with the given
// code over the monitor's lifetime. Unlike Count it is not bounded by the
// log's DefaultMaxLog retention window, so long fault storms cannot make
// it undercount; campaign aggregation reads miss totals through it.
func (m *Monitor) Reported(code ErrorCode) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reported[code]
}

// Count returns the number of logged events with the given code — bounded
// by the log's DefaultMaxLog retention window; use Reported for an exact
// lifetime total.
func (m *Monitor) Count(code ErrorCode) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if e.Code == code {
			n++
		}
	}
	return n
}

// Reset clears the event log and escalation counters (used on module reset).
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = nil
	m.counters = make(map[counterKey]int)
	m.reported = make(map[ErrorCode]uint64)
}

// ResetPartition clears the escalation counters of one partition's process-
// and partition-level rules. The kernel calls it when the partition cold
// starts: a cold start reinitialises the partition from scratch, so stale
// LogThreshold state must not survive to instantly re-escalate the first
// error of the fresh incarnation. The event log is untouched — it is the
// module-wide record of what happened.
func (m *Monitor) ResetPartition(p model.PartitionName) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.counters { //air:allow(maprange): each matching counter is deleted independently; order-insensitive
		if k.partition == p && (k.level == LevelProcess || k.level == LevelPartition) {
			delete(m.counters, k)
		}
	}
}
