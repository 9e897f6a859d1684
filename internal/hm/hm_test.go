package hm

import (
	"strconv"
	"strings"
	"testing"

	"air/internal/tick"
)

func newTestMonitor(tables Config) *Monitor {
	var now tick.Ticks
	tables.Now = func() tick.Ticks { now++; return now }
	return New(tables)
}

func TestProcessErrorDefaultsToHandlerThenStop(t *testing.T) {
	m := newTestMonitor(Config{})
	// No handler installed: default rule escalates to STOP_PROCESS.
	d := m.ReportProcess("P1", "faulty", ErrDeadlineMissed, "missed")
	if d.Action != ActionStopProcess {
		t.Errorf("no handler: action = %s, want STOP_PROCESS", d.Action)
	}
	// With a handler installed the handler is invoked.
	m.SetHandlerInstalled("P1", true)
	if !m.HandlerInstalled("P1") {
		t.Fatal("handler should be installed")
	}
	d = m.ReportProcess("P1", "faulty", ErrDeadlineMissed, "missed")
	if d.Action != ActionInvokeHandler {
		t.Errorf("with handler: action = %s, want INVOKE_HANDLER", d.Action)
	}
}

func TestProcessTableRuleOverridesDefault(t *testing.T) {
	m := newTestMonitor(Config{})
	m.SetProcessTable("P1", Table{ErrDeadlineMissed: Rule{Action: ActionRestartProcess}})
	d := m.ReportProcess("P1", "x", ErrDeadlineMissed, "")
	if d.Action != ActionRestartProcess {
		t.Errorf("action = %s, want RESTART_PROCESS", d.Action)
	}
	// Another partition still uses the default.
	d = m.ReportProcess("P2", "x", ErrDeadlineMissed, "")
	if d.Action != ActionStopProcess {
		t.Errorf("P2 action = %s, want STOP_PROCESS default", d.Action)
	}
}

func TestLogThresholdEscalation(t *testing.T) {
	// Paper Sect. 5: "logging the error a certain number of times before
	// acting upon it".
	m := newTestMonitor(Config{})
	m.SetProcessTable("P1", Table{ErrDeadlineMissed: Rule{
		Action:     ActionLogThreshold,
		Threshold:  3,
		Escalation: ActionStopProcess,
	}})
	for i := 0; i < 3; i++ {
		d := m.ReportProcess("P1", "x", ErrDeadlineMissed, "")
		if d.Action != ActionIgnore {
			t.Fatalf("occurrence %d: action = %s, want IGNORE", i+1, d.Action)
		}
	}
	d := m.ReportProcess("P1", "x", ErrDeadlineMissed, "")
	if d.Action != ActionStopProcess {
		t.Errorf("4th occurrence: action = %s, want STOP_PROCESS", d.Action)
	}
	// Counters are per (partition, process, code): a different process has
	// its own budget.
	d = m.ReportProcess("P1", "y", ErrDeadlineMissed, "")
	if d.Action != ActionIgnore {
		t.Errorf("fresh process: action = %s, want IGNORE", d.Action)
	}
}

func TestLogThresholdWithoutEscalationDefaultsToIgnore(t *testing.T) {
	m := newTestMonitor(Config{})
	m.SetProcessTable("P1", Table{ErrApplicationError: Rule{Action: ActionLogThreshold, Threshold: 0}})
	d := m.ReportProcess("P1", "x", ErrApplicationError, "")
	if d.Action != ActionIgnore {
		t.Errorf("action = %s, want IGNORE", d.Action)
	}
}

func TestPartitionErrorDefaultsToColdStart(t *testing.T) {
	m := newTestMonitor(Config{})
	d := m.ReportPartition("P1", ErrMemoryViolation, "write outside space")
	if d.Action != ActionColdStartPartition {
		t.Errorf("action = %s, want COLD_START_PARTITION", d.Action)
	}
}

func TestPartitionTableRule(t *testing.T) {
	m := newTestMonitor(Config{})
	m.SetPartitionTable("P1", Table{ErrMemoryViolation: Rule{Action: ActionStopPartition}})
	d := m.ReportPartition("P1", ErrMemoryViolation, "")
	if d.Action != ActionStopPartition {
		t.Errorf("action = %s, want STOP_PARTITION", d.Action)
	}
}

func TestModuleErrorDefaultsToShutdown(t *testing.T) {
	m := newTestMonitor(Config{})
	d := m.ReportModule(ErrHardwareFault, "bus parity")
	if d.Action != ActionShutdownModule {
		t.Errorf("action = %s, want SHUTDOWN_MODULE", d.Action)
	}
	m2 := newTestMonitor(Config{
		ModuleTable: Table{ErrHardwareFault: Rule{Action: ActionResetModule}},
	})
	if d := m2.ReportModule(ErrHardwareFault, ""); d.Action != ActionResetModule {
		t.Errorf("action = %s, want RESET_MODULE", d.Action)
	}
}

func TestEventLog(t *testing.T) {
	m := newTestMonitor(Config{})
	m.ReportProcess("P1", "a", ErrDeadlineMissed, "m1")
	m.ReportPartition("P2", ErrMemoryViolation, "m2")
	m.ReportModule(ErrPowerFail, "m3")

	events := m.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Level != LevelProcess || events[1].Level != LevelPartition ||
		events[2].Level != LevelModule {
		t.Errorf("event levels wrong: %v", events)
	}
	// Timestamps strictly increase with the test clock.
	if !(events[0].Time < events[1].Time && events[1].Time < events[2].Time) {
		t.Errorf("timestamps not increasing: %v", events)
	}
	if got := m.EventsFor("P1"); len(got) != 1 || got[0].Process != "a" {
		t.Errorf("EventsFor(P1) = %v", got)
	}
	if m.Count(ErrDeadlineMissed) != 1 || m.Count(ErrConfigError) != 0 {
		t.Error("Count broken")
	}

	m.Reset()
	if len(m.Events()) != 0 {
		t.Error("Reset did not clear events")
	}
}

func TestEventLogBounded(t *testing.T) {
	m := newTestMonitor(Config{})
	for i := 0; i <= DefaultMaxLog; i++ {
		m.ReportModule(ErrPowerFail, strconv.Itoa(i))
	}
	events := m.Events()
	if len(events) != DefaultMaxLog {
		t.Fatalf("log length = %d, want %d", len(events), DefaultMaxLog)
	}
	if first, last := events[0].Message, events[len(events)-1].Message; first != "1" || last != strconv.Itoa(DefaultMaxLog) {
		t.Errorf("log holds reports %s..%s, want the oldest evicted (1..%d)", first, last, DefaultMaxLog)
	}
}

func TestResetPartitionClearsEscalationCounters(t *testing.T) {
	// Regression: LogThreshold counters used to survive a partition cold
	// start (only a module Reset cleared them), so the fresh incarnation's
	// first error escalated immediately.
	rule := Rule{Action: ActionLogThreshold, Threshold: 2, Escalation: ActionStopProcess}
	m := newTestMonitor(Config{})
	m.SetProcessTable("P1", Table{ErrDeadlineMissed: rule})
	m.SetProcessTable("P2", Table{ErrDeadlineMissed: rule})
	m.SetPartitionTable("P1", Table{ErrMemoryViolation: {Action: ActionLogThreshold, Threshold: 1,
		Escalation: ActionColdStartPartition}})
	// Exhaust P1's process threshold and reach its partition threshold.
	for i := 0; i < 3; i++ {
		m.ReportProcess("P1", "x", ErrDeadlineMissed, "")
	}
	m.ReportPartition("P1", ErrMemoryViolation, "")
	// Burn one of P2's two logged strikes so cross-partition state exists.
	m.ReportProcess("P2", "x", ErrDeadlineMissed, "")

	m.ResetPartition("P1")

	// P1 starts from a clean slate at both levels.
	if d := m.ReportProcess("P1", "x", ErrDeadlineMissed, ""); d.Action != ActionIgnore {
		t.Errorf("P1 process counter not cleared: action = %s, want IGNORE", d.Action)
	}
	if d := m.ReportPartition("P1", ErrMemoryViolation, ""); d.Action != ActionIgnore {
		t.Errorf("P1 partition counter not cleared: action = %s, want IGNORE", d.Action)
	}
	// P2's accumulated strike is untouched: one more logs, the next
	// escalates.
	if d := m.ReportProcess("P2", "x", ErrDeadlineMissed, ""); d.Action != ActionIgnore {
		t.Errorf("P2 second strike: action = %s, want IGNORE", d.Action)
	}
	if d := m.ReportProcess("P2", "x", ErrDeadlineMissed, ""); d.Action != ActionStopProcess {
		t.Errorf("P2 over threshold: action = %s, want STOP_PROCESS", d.Action)
	}
	// The event log survives a partition reset (module-wide record).
	if len(m.Events()) == 0 {
		t.Error("ResetPartition must not clear the event log")
	}
}

func TestDefaultMaxLogBoundsEventLog(t *testing.T) {
	// Regression: a monitor's log used to be unbounded unless configured,
	// so a zero-config monitor grew without limit under a fault storm.
	m := newTestMonitor(Config{})
	for i := 0; i < DefaultMaxLog+100; i++ {
		m.ReportModule(ErrPowerFail, "storm")
	}
	if n := len(m.Events()); n != DefaultMaxLog {
		t.Errorf("log length = %d, want DefaultMaxLog (%d)", n, DefaultMaxLog)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 42, Code: ErrDeadlineMissed, Level: LevelProcess,
		Partition: "P1", Process: "faulty", Message: "late", Action: ActionStopProcess}
	s := e.String()
	for _, want := range []string{"42", "DEADLINE_MISSED", "PROCESS", "P1/faulty", "STOP_PROCESS", "late"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestStringers(t *testing.T) {
	codes := map[ErrorCode]string{
		ErrDeadlineMissed: "DEADLINE_MISSED", ErrApplicationError: "APPLICATION_ERROR",
		ErrNumericError: "NUMERIC_ERROR", ErrIllegalRequest: "ILLEGAL_REQUEST",
		ErrStackOverflow: "STACK_OVERFLOW", ErrMemoryViolation: "MEMORY_VIOLATION",
		ErrHardwareFault: "HARDWARE_FAULT", ErrPowerFail: "POWER_FAIL",
		ErrConfigError: "CONFIG_ERROR", ErrPartitionHang: "PARTITION_HANG",
		ErrorCode(0): "ErrorCode(0)",
	}
	for code, want := range codes {
		if code.String() != want {
			t.Errorf("%d.String() = %q, want %q", code, code.String(), want)
		}
	}
	levels := map[Level]string{
		LevelProcess: "PROCESS", LevelPartition: "PARTITION",
		LevelModule: "MODULE", Level(0): "Level(0)",
	}
	for l, want := range levels {
		if l.String() != want {
			t.Errorf("Level %d.String() = %q, want %q", l, l.String(), want)
		}
	}
	actions := map[Action]string{
		ActionIgnore: "IGNORE", ActionLogThreshold: "LOG_THRESHOLD",
		ActionInvokeHandler: "INVOKE_HANDLER", ActionStopProcess: "STOP_PROCESS",
		ActionRestartProcess:     "RESTART_PROCESS",
		ActionWarmStartPartition: "WARM_START_PARTITION",
		ActionColdStartPartition: "COLD_START_PARTITION",
		ActionStopPartition:      "STOP_PARTITION", ActionResetModule: "RESET_MODULE",
		ActionShutdownModule: "SHUTDOWN_MODULE", Action(0): "Action(0)",
	}
	for a, want := range actions {
		if a.String() != want {
			t.Errorf("Action %d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestDefaultClock(t *testing.T) {
	m := New(Config{})
	d := m.ReportModule(ErrPowerFail, "")
	if d.Event.Time != 0 {
		t.Errorf("default clock should stamp 0, got %d", d.Event.Time)
	}
}
