// Package air is a complete, from-scratch implementation of the AIR
// architecture for robust temporal and spatial partitioning (TSP) in
// aerospace systems, reproducing "Architecting Robustness and Timeliness in
// a New Generation of Aerospace Systems" (Rufino, Craveiro, Verissimo).
//
// An AIR module hosts several partitions on one computing platform. The
// Partition Management Kernel schedules partitions cyclically over a major
// time frame (first level); inside each partition a Partition Operating
// System schedules processes preemptively by priority (second level). The
// architecture adds mode-based partition schedules (multiple scheduling
// tables switched at major-time-frame boundaries) and process deadline
// violation monitoring (earliest-deadline verification inside the clock tick
// path with optimal detection latency), plus spatial partitioning through
// per-partition addressing spaces, ARINC 653 APEX services, interpartition
// communication and health monitoring.
//
// The module executes as a deterministic discrete-tick simulation:
// application processes are goroutines running ordinary APEX-calling Go
// code, stepped by the kernel one logical tick at a time, so every temporal
// property of the paper is observable and bit-exact reproducible.
//
// # Quick start
//
//	sys := air.Fig8System() // the paper's prototype scheduling tables
//	m, err := air.NewModule(air.Config{
//	    System: sys,
//	    Partitions: []air.PartitionConfig{
//	        {Name: "P1", Init: myInit}, // creates processes, ports, ...
//	        {Name: "P2"}, {Name: "P3"}, {Name: "P4"},
//	    },
//	})
//	if err != nil { ... }
//	defer m.Shutdown()
//	if err := m.Start(); err != nil { ... }
//	m.Run(10 * 1300) // ten major time frames
//
// See the examples directory for complete applications and DESIGN.md for the
// architecture-to-package map.
package air

import (
	"io"

	"air/internal/apex"
	"air/internal/campaign"
	"air/internal/config"
	"air/internal/core"
	"air/internal/hm"
	"air/internal/iodev"
	"air/internal/ipc"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/multicore"
	"air/internal/obs"
	"air/internal/pos"
	"air/internal/recovery"
	"air/internal/report"
	"air/internal/sched"
	"air/internal/tick"
	"air/internal/workload"
)

// Time base.
type (
	// Ticks is the logical time unit: system clock ticks.
	Ticks = tick.Ticks
)

// Infinity is the unbounded duration (no deadline / wait forever).
const Infinity = tick.Infinity

// Formal system model (paper Sect. 3, 4.1).
type (
	// System is the formal model: partitions P and scheduling tables χ.
	System = model.System
	// Schedule is one partition scheduling table χ_i = ⟨MTF, Q, ω⟩.
	Schedule = model.Schedule
	// Window is a partition execution time window ω = ⟨P, O, c⟩.
	Window = model.Window
	// Requirement is a partition timing requirement Q = ⟨P, η, d⟩.
	Requirement = model.Requirement
	// PartitionName identifies a partition.
	PartitionName = model.PartitionName
	// ScheduleID indexes a scheduling table.
	ScheduleID = model.ScheduleID
	// OperatingMode is the partition mode M(t) of eq. (3).
	OperatingMode = model.OperatingMode
	// ScheduleChangeAction is the per-schedule partition restart action.
	ScheduleChangeAction = model.ScheduleChangeAction
	// TaskSpec carries the process attributes of eq. (11).
	TaskSpec = model.TaskSpec
	// TaskSet is a partition's process set.
	TaskSet = model.TaskSet
	// Priority is a process priority (lower value = higher priority).
	Priority = model.Priority
	// ProcessState is the process state of eq. (13).
	ProcessState = model.ProcessState
	// VerificationReport collects formal-model violations.
	VerificationReport = model.Report
)

// Partition operating modes (eq. 3).
const (
	ModeIdle      = model.ModeIdle
	ModeColdStart = model.ModeColdStart
	ModeWarmStart = model.ModeWarmStart
	ModeNormal    = model.ModeNormal
)

// Schedule change actions (Sect. 4).
const (
	ActionSkip      = model.ActionSkip
	ActionWarmStart = model.ActionWarmStart
	ActionColdStart = model.ActionColdStart
)

// Process states (eq. 13).
const (
	StateDormant = model.StateDormant
	StateReady   = model.StateReady
	StateRunning = model.StateRunning
	StateWaiting = model.StateWaiting
)

// Runtime (the AIR module and APEX services).
type (
	// Module is a running AIR module.
	Module = core.Module
	// Config describes a module at integration time.
	Config = core.Config
	// PartitionConfig describes one partition at integration time.
	PartitionConfig = core.PartitionConfig
	// Services is the APEX service interface bound to a partition (and,
	// in process context, to the calling process).
	Services = core.Services
	// InitFunc is a partition initialization entry point.
	InitFunc = core.InitFunc
	// ProcessBody is a process's application code.
	ProcessBody = core.ProcessBody
	// ErrorHandler is a partition's application error handler.
	ErrorHandler = core.ErrorHandler
	// Partition is a partition's runtime (diagnostics surface).
	Partition = core.Partition
	// Event is a module trace record.
	Event = core.Event
	// EventKind classifies trace records.
	EventKind = obs.Kind
	// ProcessID identifies a process within its partition.
	ProcessID = pos.ProcessID
	// Policy selects the POS scheduling algorithm.
	Policy = pos.Policy
)

// Trace event kinds.
const (
	EvPartitionSwitch  = obs.KindPartitionSwitch
	EvScheduleSwitch   = obs.KindScheduleSwitch
	EvDeadlineMiss     = obs.KindDeadlineMiss
	EvPartitionRestart = obs.KindPartitionRestart
	EvPartitionStopped = obs.KindPartitionStopped
	EvProcessStopped   = obs.KindProcessStopped
	EvProcessRestarted = obs.KindProcessRestarted
	EvModuleReset      = obs.KindModuleReset
	EvModuleHalt       = obs.KindModuleHalt
	EvMemoryViolation  = obs.KindMemoryViolation
)

// POS scheduling policies.
const (
	PolicyPriorityPreemptive = pos.PolicyPriorityPreemptive
	PolicyRoundRobin         = pos.PolicyRoundRobin
)

// APEX types (ARINC 653 service interface, paper Sect. 2.3).
type (
	// ReturnCode is the ARINC 653 service return code.
	ReturnCode = apex.ReturnCode
	// Direction is a port direction.
	Direction = apex.Direction
	// QueuingDiscipline orders blocked processes on a resource.
	QueuingDiscipline = apex.QueuingDiscipline
	// Validity flags sampling-message freshness.
	Validity = apex.Validity
	// PartitionStatus is the GET_PARTITION_STATUS result.
	PartitionStatus = apex.PartitionStatus
	// ProcessStatus is the GET_PROCESS_STATUS result.
	ProcessStatus = apex.ProcessStatus
	// ModuleScheduleStatus is the GET_MODULE_SCHEDULE_STATUS result.
	ModuleScheduleStatus = apex.ModuleScheduleStatus
)

// APEX return codes.
const (
	NoError       = apex.NoError
	NoAction      = apex.NoAction
	NotAvailable  = apex.NotAvailable
	InvalidParam  = apex.InvalidParam
	InvalidConfig = apex.InvalidConfig
	InvalidMode   = apex.InvalidMode
	TimedOut      = apex.TimedOut
)

// Port directions and disciplines.
const (
	Source        = apex.Source
	Destination   = apex.Destination
	FIFO          = apex.FIFO
	PriorityOrder = apex.PriorityOrder
	Valid         = apex.Valid
	Invalid       = apex.Invalid
)

// Health monitoring (paper Sect. 2.4, 5).
type (
	// HMTable maps error codes to recovery rules.
	HMTable = hm.Table
	// HMRule configures the response to one error code.
	HMRule = hm.Rule
	// HMEvent is one health-monitoring log record.
	HMEvent = hm.Event
	// HMErrorCode classifies a detected error.
	HMErrorCode = hm.ErrorCode
	// HMAction is a recovery action.
	HMAction = hm.Action
)

// Health monitoring error codes.
const (
	ErrDeadlineMissed   = hm.ErrDeadlineMissed
	ErrApplicationError = hm.ErrApplicationError
	ErrMemoryViolation  = hm.ErrMemoryViolation
	ErrHardwareFault    = hm.ErrHardwareFault
)

// Health monitoring recovery actions.
const (
	ActionIgnore             = hm.ActionIgnore
	ActionLogThreshold       = hm.ActionLogThreshold
	ActionInvokeHandler      = hm.ActionInvokeHandler
	ActionStopProcess        = hm.ActionStopProcess
	ActionRestartProcess     = hm.ActionRestartProcess
	ActionWarmStartPartition = hm.ActionWarmStartPartition
	ActionColdStartPartition = hm.ActionColdStartPartition
	ActionStopPartition      = hm.ActionStopPartition
	ActionResetModule        = hm.ActionResetModule
	ActionShutdownModule     = hm.ActionShutdownModule
)

// Interpartition communication configuration.
type (
	// SamplingChannelConfig configures a sampling channel.
	SamplingChannelConfig = ipc.SamplingConfig
	// QueuingChannelConfig configures a queuing channel.
	QueuingChannelConfig = ipc.QueuingConfig
	// PortRef names one channel endpoint.
	PortRef = ipc.PortRef
)

// Spatial partitioning.
type (
	// MemoryDescriptor describes one range of a partition addressing space.
	MemoryDescriptor = mmu.Descriptor
	// VirtAddr is a partition-space virtual address.
	VirtAddr = mmu.VirtAddr
	// Device is a memory-mapped I/O device interface.
	Device = mmu.Device
	// DeviceMapping binds a device into one partition's I/O space.
	DeviceMapping = core.DeviceMapping
	// UART is a simulated serial device (TX log + RX queue).
	UART = iodev.UART
	// Sensor is a simulated read-only measurement device.
	Sensor = iodev.Sensor
)

// NewUART creates a simulated serial device for a partition's I/O space.
func NewUART() *UART { return iodev.NewUART() }

// NewSensor creates a simulated n-register sensor starting at base and
// advancing by stride per Sample.
func NewSensor(n int, base, stride uint16) *Sensor { return iodev.NewSensor(n, base, stride) }

// Memory sections and permissions.
const (
	SectionCode  = mmu.SectionCode
	SectionData  = mmu.SectionData
	SectionStack = mmu.SectionStack
	PermRead     = mmu.Read
	PermWrite    = mmu.Write
	PermExecute  = mmu.Execute
	PageSize     = mmu.PageSize
)

// NewModule validates the configuration against the formal model and builds
// a module. No process code runs until Start.
func NewModule(cfg Config) (*Module, error) { return core.NewModule(cfg) }

// Verify checks a system against the formal model: window ordering
// (eq. 21), MTF multiplicity (eq. 22) and per-cycle budgets (eq. 23).
func Verify(sys *System) *VerificationReport { return model.Verify(sys) }

// Fig8System returns the paper's Sect. 6 prototype: four partitions and the
// two scheduling tables of Fig. 8.
func Fig8System() *System { return model.Fig8System() }

// LoadConfig reads a JSON module configuration from disk.
func LoadConfig(path string) (*config.Module, error) { return config.Load(path) }

// Synthesize generates a verified partition scheduling table from timing
// requirements by EDF scheduling of the per-cycle budgets (the "automated
// aids to the definition of system parameters" the paper motivates).
func Synthesize(name string, reqs []Requirement) (*Schedule, error) {
	return sched.Synthesize(name, reqs)
}

// AnalyzeSystem runs fixed-priority process schedulability analysis for
// every (schedule, partition) pair, against the supply each PST delivers.
func AnalyzeSystem(sys *System, tasksets []TaskSet) ([]sched.PartitionResult, error) {
	return sched.AnalyzeSystem(sys, tasksets)
}

// Multicore support (the paper's Sect. 8 future-work item (iv)): each core
// runs its own two-level hierarchy over per-core scheduling tables, with the
// physical memory, interpartition channels and health monitor shared
// module-wide and partitions statically pinned to cores.
type (
	// MulticoreModule is a running multicore AIR module.
	MulticoreModule = multicore.Module
	// MulticoreConfig describes a multicore module: one Config per core
	// plus the module-wide channels.
	MulticoreConfig = multicore.Config
)

// NewMulticoreModule validates partition-to-core affinity and builds a
// multicore module stepped in deterministic lockstep.
func NewMulticoreModule(cfg MulticoreConfig) (*MulticoreModule, error) {
	return multicore.NewModule(cfg)
}

// Notation renders a system in the paper's mathematical notation (the Fig. 8
// style P/Q/χ/ω equations).
func Notation(sys *System) string { return model.Notation(sys) }

// RenderGantt renders a scheduling table as a text Gantt chart (Fig. 8
// timeline form), width columns wide.
func RenderGantt(s *Schedule, width int) string { return sched.RenderGantt(s, width) }

// WriteIntegrationReport renders the full Markdown integration report for a
// loaded configuration document: formal notation, verification with
// derivation summaries, timelines, detection latency bounds and process
// schedulability.
func WriteIntegrationReport(w io.Writer, doc *config.Module) error {
	return report.Write(w, doc)
}

// SimulateTaskSet runs the exact MTF-synchronized fixed-priority simulation
// of a partition's periodic task set under a scheduling table.
func SimulateTaskSet(s *Schedule, ts TaskSet, horizon Ticks) (sched.SimResult, error) {
	return sched.SimulateTaskSet(s, ts, horizon)
}

// AssignRateMonotonic and AssignDeadlineMonotonic return copies of a task
// set with fixed priorities assigned by period or by relative deadline.
func AssignRateMonotonic(ts TaskSet) TaskSet { return sched.AssignRateMonotonic(ts) }

// AssignDeadlineMonotonic assigns priorities by relative deadline.
func AssignDeadlineMonotonic(ts TaskSet) TaskSet { return sched.AssignDeadlineMonotonic(ts) }

// Fault-injection campaigns (robustness evaluation over many module runs).
type (
	// FaultKind classifies an injectable fault.
	FaultKind = workload.FaultKind
	// FaultSpec configures one fault injection into a workload.
	FaultSpec = workload.FaultSpec
	// CampaignSpec configures a fault-injection campaign.
	CampaignSpec = campaign.Spec
	// CampaignScenario is one weighted entry of a campaign fault matrix.
	CampaignScenario = campaign.Scenario
	// CampaignFaultRange is a fault class with sweepable parameter ranges.
	CampaignFaultRange = campaign.FaultRange
	// CampaignRange is an inclusive parameter range ([Min, Min] when pinned).
	CampaignRange = campaign.Range
	// CampaignResult is a completed campaign: per-run observations plus the
	// aggregate, serializable deterministically via its JSON method.
	CampaignResult = campaign.Result
	// CampaignObservation is one run's measurements.
	CampaignObservation = campaign.Observation
	// CampaignAggregate is the campaign-level fold of all observations.
	CampaignAggregate = campaign.Aggregate
)

// Injectable fault classes.
const (
	FaultDeadlineOverrun  = workload.FaultDeadlineOverrun
	FaultMemoryViolation  = workload.FaultMemoryViolation
	FaultModeSwitchStorm  = workload.FaultModeSwitchStorm
	FaultSporadicOverload = workload.FaultSporadicOverload
	FaultIPCFlood         = workload.FaultIPCFlood
	FaultRestartStorm     = workload.FaultRestartStorm
	FaultPartitionHang    = workload.FaultPartitionHang
)

// Recovery orchestration (restart budgets, partition quarantine, graceful
// degradation to safe-mode schedules — internal/recovery). A RecoveryPolicy
// plugs into Config.Recovery; the module then arbitrates every HM-decided
// partition restart through it.
type (
	// RecoveryPolicy is a module's complete recovery-orchestration policy.
	RecoveryPolicy = recovery.Policy
	// RecoveryBudget is a partition's restart token-bucket.
	RecoveryBudget = recovery.Budget
	// RecoveryQuarantine configures the failed-recovery circuit breaker.
	RecoveryQuarantine = recovery.Quarantine
	// RecoveryDegradation configures safe-mode schedule escalation.
	RecoveryDegradation = recovery.Degradation
	// RecoveryRung is one step of the degradation ladder.
	RecoveryRung = recovery.Rung
	// RecoveryEngine is the per-module orchestrator (Module.Recovery()).
	RecoveryEngine = recovery.Engine
	// RecoveryStatus is a partition's recovery state.
	RecoveryStatus = recovery.Status
)

// Recovery statuses (Module.Recovery().StatusOf).
const (
	RecoveryNormal      = recovery.StatusNormal
	RecoveryDeferred    = recovery.StatusDeferred
	RecoveryQuarantined = recovery.StatusQuarantined
	RecoveryHalfOpen    = recovery.StatusHalfOpen
)

// DefaultRecoveryPolicy returns the conservative policy sized for the Fig. 8
// prototype (budgeted restarts, quarantine after three failed recoveries,
// empty degradation ladder — safe-mode schedules must be named explicitly).
func DefaultRecoveryPolicy() RecoveryPolicy { return recovery.DefaultPolicy() }

// RunCampaign executes a fault-injection campaign: Spec.Runs independent
// module simulations distributed over a worker pool, each seeded
// deterministically from Spec.Seed, sweeping the scenario matrix. Results
// are byte-identical across repetitions and worker counts.
func RunCampaign(spec CampaignSpec) (*CampaignResult, error) { return campaign.Run(spec) }

// LoadCampaign reads and validates a JSON campaign matrix from disk; convert
// it with CampaignFromConfig.
func LoadCampaign(path string) (*config.Campaign, error) { return config.LoadCampaign(path) }

// CampaignFromConfig converts a campaign configuration document into a
// runnable Spec.
func CampaignFromConfig(doc *config.Campaign) (CampaignSpec, error) { return campaign.FromConfig(doc) }

// WriteCampaignReport renders a campaign result as Markdown. Timing is
// included only when requested (it is wall-clock-dependent).
func WriteCampaignReport(w io.Writer, res *CampaignResult, includeTiming bool) error {
	return report.WriteCampaign(w, res, includeTiming)
}
