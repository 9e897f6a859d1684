// Package core assembles the complete AIR module: the PMK partition
// scheduler and dispatcher (Algorithms 1–2), one POS kernel + PAL per
// partition, the APEX service implementations, Health Monitoring, spatial
// partitioning contexts and interpartition communication — executed as a
// deterministic discrete-tick simulation.
//
// Application processes are real goroutines running imperative APEX-calling
// code, but execution is strictly alternated: the kernel grants the
// processor one logical tick at a time over a channel handshake, so exactly
// one goroutine (the kernel or a single process) runs at any instant. This
// yields natural ARINC 653 application code and bit-exact determinism.
package core

import (
	"errors"
	"fmt"

	"air/internal/apex"
	"air/internal/hm"
	"air/internal/ipc"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/pmk"
	"air/internal/pos"
	"air/internal/recovery"
	"air/internal/tick"
)

// InitFunc is a partition's initialization entry point. It runs in
// coldStart/warmStart mode with process scheduling disabled, creates the
// partition's processes, ports and objects, and normally ends by calling
// SetPartitionMode(model.ModeNormal).
type InitFunc func(sv *Services)

// ProcessBody is the application code of a process. It runs on its own
// goroutine under the strict-alternation protocol; returning from the body
// stops the process (dormant state).
type ProcessBody func(sv *Services)

// ErrorHandler is a partition's application error handler, invoked by the
// Health Monitor for process-level errors when installed (Sect. 2.4, 5). It
// executes in kernel context (zero time): blocking services are unavailable.
type ErrorHandler func(sv *Services, ev hm.Event)

// PartitionConfig describes one partition at integration time.
type PartitionConfig struct {
	Name model.PartitionName
	// System marks a system partition, authorized to invoke module-level
	// services such as SET_MODULE_SCHEDULE (Sect. 2, 4.2).
	System bool
	// Policy selects the POS scheduler; zero value = priority preemptive.
	Policy pos.Policy
	// Queue selects the PAL deadline queue (Sect. 5.3 ablation); the zero
	// value is the paper's sorted list. Both queues share the (deadline,
	// pid) total order, so the choice never changes a trace byte — only the
	// constant factors.
	Queue QueueKind
	// Init is the partition initialization entry point.
	Init InitFunc
	// Descriptors optionally overrides the partition's addressing space;
	// nil installs a default layout (code/data/stack).
	Descriptors []mmu.Descriptor
	// Devices maps memory-mapped I/O devices into the partition's dedicated
	// I/O addressing space (paper abstract: "dedicated memory and
	// input/output addressing spaces").
	Devices []DeviceMapping
	// HMProcessTable / HMPartitionTable configure the partition's health
	// monitoring rules.
	HMProcessTable   hm.Table
	HMPartitionTable hm.Table
	// MaxProcesses bounds the process table (0 = POS default).
	MaxProcesses int
}

// QueueKind selects a partition's PAL deadline queue.
type QueueKind uint8

// Deadline queue kinds.
const (
	QueueList QueueKind = iota // the paper's sorted doubly linked list, the default
	QueueTree                  // AVL tree, the discussed alternative
)

// Config describes the whole module at integration time.
type Config struct {
	// System is the formal model: partitions and scheduling tables. It is
	// verified before the module boots; an invalid system is rejected.
	System     *model.System
	Partitions []PartitionConfig
	// Sampling and Queuing configure the interpartition channels.
	Sampling []ipc.SamplingConfig
	Queuing  []ipc.QueuingConfig
	// HMModuleTable configures module-level health monitoring.
	HMModuleTable hm.Table
	// MemoryBytes sizes the simulated physical memory (default 16 MiB).
	MemoryBytes int
	// TraceCapacity bounds the trace ring (0 selects
	// obs.DefaultTraceCapacity events; <0 disables trace retention — the
	// spine's metrics still accumulate). The ring grows to its bound as
	// events arrive, so a module and each fork of it pay for the events
	// retained, not for the bound.
	TraceCapacity int
	// Recovery, when non-nil, layers the recovery orchestration policy
	// engine (internal/recovery) between Health Monitor decisions and their
	// execution: partition restarts are arbitrated against restart budgets,
	// repeatedly failing partitions are quarantined, and the degradation
	// ladder switches the module to safe-mode schedules. Nil preserves the
	// direct HM-decision → kernel-action path.
	Recovery *recovery.Policy
	// HangTicks enables the partition liveness watchdog: a partition that
	// consumes this many consecutive granted ticks without any process
	// completing or blocking is reported to the Health Monitor as
	// PARTITION_HANG (a no-progress hang that deadline monitoring cannot
	// see). 0 disables the watchdog.
	HangTicks tick.Ticks
	// CoreID attributes this module's spine events to a processor core
	// (only meaningful under a multicore shared platform).
	CoreID int
	// Sinks attaches additional observability sinks (streaming JSONL
	// export, custom probes) to the module's spine at construction, after
	// the trace ring.
	Sinks []obs.Sink
	// Shared, when non-nil, is the platform the module runs on instead of
	// one of its own: a multicore module (paper Sect. 8 future work (iv))
	// builds one with NewPlatform and hands it to every core, so memory
	// and MMU, the channel router, the Health Monitor and the spine are
	// module-wide while each core keeps its own partition scheduler and
	// dispatcher. The platform settings (MemoryBytes, TraceCapacity,
	// Sampling, Queuing, HMModuleTable) are then the platform's, not the
	// core's.
	Shared *SharedPlatform
	// BatchObs defers spine sink delivery to once per partition window: hot
	// layers stage events into the bus's fixed buffer and the kernel flushes
	// at each partition preemption point. Metrics observe immediately either
	// way, and every sink read path (trace, export, shutdown) flushes first,
	// so batching never changes what any reader observes — only how often
	// the sink fan-out runs.
	BatchObs bool
}

// SharedPlatform is the platform a module's partitions run on: simulated
// memory and its MMU, the interpartition channel router, the Health Monitor
// and the observability spine with its trace ring (nil when retention is
// disabled). NewPlatform builds it, for one single-core module or for all
// the cores of a multicore one.
type SharedPlatform struct {
	Memory *mmu.MMU
	Router *ipc.Router
	Health *hm.Monitor
	Bus    *obs.Bus
	Ring   *obs.Ring
}

// NewPlatform builds a module platform from cfg's platform settings:
// MemoryBytes of simulated memory (16 MiB when 0), a spine whose trace ring
// holds TraceCapacity events (see newTraceRing), a router carrying the
// Sampling and Queuing channels, and a Health Monitor applying
// HMModuleTable and stamping its events with now. The router's and the
// monitor's spine events carry cfg.CoreID. Sinks are not attached: the
// module or multicore module that owns the platform attaches its own.
func NewPlatform(cfg Config, now func() tick.Ticks) (*SharedPlatform, error) {
	memBytes := cfg.MemoryBytes
	if memBytes == 0 {
		memBytes = 16 << 20
	}
	bus := obs.NewBus()
	ring := newTraceRing(cfg.TraceCapacity)
	if ring != nil {
		bus.Attach(ring)
	}
	em := obs.NewEmitter(bus, cfg.CoreID)
	router := ipc.NewRouter()
	router.AttachObs(em)
	for _, sc := range cfg.Sampling {
		if _, err := router.AddSampling(sc); err != nil {
			return nil, err
		}
	}
	for _, qc := range cfg.Queuing {
		if _, err := router.AddQueuing(qc); err != nil {
			return nil, err
		}
	}
	return &SharedPlatform{
		Memory: mmu.New(memBytes),
		Router: router,
		Health: hm.New(hm.Config{Now: now, ModuleTable: cfg.HMModuleTable, Obs: em}),
		Bus:    bus,
		Ring:   ring,
	}, nil
}

// DeviceMapping binds a memory-mapped I/O device into one partition's
// addressing space.
type DeviceMapping struct {
	Base     mmu.VirtAddr
	Size     uint32
	AppPerms mmu.AccessMode
	POSPerms mmu.AccessMode
	Device   mmu.Device
}

// Module errors.
var (
	ErrModelInvalid       = errors.New("core: system fails model verification")
	ErrPartitionMismatch  = errors.New("core: partition configs do not match model partitions")
	ErrAlreadyStarted     = errors.New("core: module already started")
	ErrNotStarted         = errors.New("core: module not started")
	ErrHalted             = errors.New("core: module halted")
	ErrUnknownPartitionID = errors.New("core: unknown partition")
)

// Module is a running AIR module.
type Module struct {
	cfg    Config
	sys    *model.System
	health *hm.Monitor
	memory *mmu.MMU
	router *ipc.Router
	sched  *pmk.Scheduler
	disp   *pmk.Dispatcher

	partitions map[model.PartitionName]*Partition
	order      []model.PartitionName
	// byOrdinal holds the partitions in pmk ordinal order (sys.Partitions),
	// so Step indexes the dispatched partition by DispatchResult.Ordinal.
	byOrdinal []*Partition

	now     tick.Ticks
	started bool
	halted  bool

	// recov is the recovery orchestration engine (nil without a policy).
	recov *recovery.Engine

	bus    *obs.Bus
	ring   *obs.Ring
	coreID int
}

// NewModule validates the configuration against the formal model and builds
// the module. No process code runs until Start.
func NewModule(cfg Config) (*Module, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("%w: nil system", ErrModelInvalid)
	}
	if r := model.Verify(cfg.System); !r.OK() {
		return nil, fmt.Errorf("%w:\n%s", ErrModelInvalid, r)
	}
	if err := checkPartitionConfigs(cfg); err != nil {
		return nil, err
	}

	m := &Module{
		cfg:        cfg,
		sys:        cfg.System,
		partitions: make(map[model.PartitionName]*Partition, len(cfg.Partitions)),
		coreID:     cfg.CoreID,
	}
	plat := cfg.Shared
	if plat == nil {
		var err error
		if plat, err = NewPlatform(cfg, m.Now); err != nil {
			return nil, err
		}
	}
	m.memory, m.router, m.health, m.bus, m.ring = plat.Memory, plat.Router, plat.Health, plat.Bus, plat.Ring
	for _, s := range cfg.Sinks {
		m.bus.Attach(s)
	}

	compiled := make([]*pmk.CompiledSchedule, len(cfg.System.Schedules))
	for i := range cfg.System.Schedules {
		cs, err := pmk.Compile(cfg.System, &cfg.System.Schedules[i])
		if err != nil {
			return nil, err
		}
		compiled[i] = cs
	}
	sched, err := pmk.NewScheduler(compiled)
	if err != nil {
		return nil, err
	}
	m.sched = sched
	m.disp = pmk.NewDispatcher(sched, pmk.Hooks{})
	m.bind()

	for _, pc := range cfg.Partitions {
		m.partitions[pc.Name] = newPartition(m, pc)
		m.order = append(m.order, pc.Name)
	}
	m.indexPartitions()

	if cfg.Recovery != nil {
		schedNames := make([]string, len(cfg.System.Schedules))
		for i := range cfg.System.Schedules {
			schedNames[i] = cfg.System.Schedules[i].Name
		}
		if err := cfg.Recovery.Validate(m.order, schedNames); err != nil {
			return nil, err
		}
		m.recov = recovery.NewEngine(*cfg.Recovery, m.recoveryOptions())
	}
	return m, nil
}

// bind wires the module's kernel to its spine and to itself: the partition
// scheduler's and dispatcher's emitters, the dispatcher's Algorithm 2
// hooks and, with BatchObs, batched sink delivery. NewModule binds the
// components it builds and fork the ones it clones, which carry no hooks
// or emitters over from the parent.
func (m *Module) bind() {
	if m.cfg.BatchObs {
		m.bus.SetBatching(true)
	}
	em := obs.NewEmitter(m.bus, m.coreID)
	m.sched.AttachObs(em)
	m.disp.AttachObs(em)
	m.disp.SetHooks(pmk.Hooks{
		SaveContext:                 func(model.PartitionName) {}, // page tables are per-partition; nothing to spill
		RestoreContext:              m.restoreContext,
		EnterIdle:                   m.memory.ClearContext,
		PendingScheduleChangeAction: m.applyPendingScheduleAction,
	})
}

// recoveryOptions binds a recovery engine, new (NewModule) or cloned
// (fork), to the module: its clock, its spine and the kernel operations the
// engine orders.
func (m *Module) recoveryOptions() recovery.Options {
	return recovery.Options{
		Now:        m.Now,
		Obs:        obs.NewEmitter(m.bus, m.coreID),
		Partitions: m.order,
		Hooks: recovery.Hooks{
			Restart:        m.recoveryRestart,
			SwitchSchedule: m.recoverySwitchSchedule,
			ScheduleName:   m.currentScheduleName,
		},
	}
}

// indexPartitions builds byOrdinal from the partitions map. Every model
// partition has a config (checkPartitionConfigs), so no slot stays nil.
func (m *Module) indexPartitions() {
	m.byOrdinal = make([]*Partition, len(m.sys.Partitions))
	for i, name := range m.sys.Partitions {
		m.byOrdinal[i] = m.partitions[name]
	}
}

func checkPartitionConfigs(cfg Config) error {
	if len(cfg.Partitions) != len(cfg.System.Partitions) {
		return fmt.Errorf("%w: %d configs for %d partitions",
			ErrPartitionMismatch, len(cfg.Partitions), len(cfg.System.Partitions))
	}
	seen := make(map[model.PartitionName]bool, len(cfg.Partitions))
	for _, pc := range cfg.Partitions {
		if !cfg.System.HasPartition(pc.Name) {
			return fmt.Errorf("%w: %s not in model", ErrPartitionMismatch, pc.Name)
		}
		if seen[pc.Name] {
			return fmt.Errorf("%w: duplicate config for %s", ErrPartitionMismatch, pc.Name)
		}
		seen[pc.Name] = true
	}
	return nil
}

// Start boots the module: every partition's addressing space is installed,
// partition initialization code runs (coldStart mode), and the partition
// scheduler is primed with the first preemption point.
func (m *Module) Start() error {
	if m.started {
		return ErrAlreadyStarted
	}
	m.started = true
	for _, name := range m.order {
		pt := m.partitions[name]
		if err := pt.mapSpace(); err != nil {
			return err
		}
	}
	for _, name := range m.order {
		m.partitions[name].coldStart()
	}
	heir, err := m.sched.Start()
	if err != nil {
		return err
	}
	res := m.disp.Dispatch(heir, 0)
	m.traceEvent(Event{Time: 0, Kind: obs.KindPartitionSwitch, Partition: res.Active.Partition,
		Detail: "initial dispatch: " + res.Active.String()})
	return nil
}

// Step executes one system clock tick: the Partition Scheduler (Algorithm
// 1), the Partition Dispatcher (Algorithm 2), the PAL surrogate clock tick
// announcement with deadline verification (Algorithm 3), and one tick of the
// active partition's process scheduling.
func (m *Module) Step() error {
	if !m.started {
		return ErrNotStarted
	}
	if m.halted {
		return ErrHalted
	}
	preemption := m.sched.Tick()
	m.now = m.sched.Ticks()
	if preemption {
		// Partition window boundary: hand the previous window's staged
		// events to the sinks (no-op without BatchObs).
		m.bus.Flush()
	}
	if m.recov != nil {
		// Deferred-restart resumes, half-open quarantine probes and
		// schedule restores fire before dispatch, so a partition revived at
		// tick T is schedulable at tick T.
		m.recov.OnTick(m.now)
		if m.halted {
			return nil
		}
	}
	res := m.disp.Dispatch(m.sched.Heir(), m.now)
	if preemption && res.Switched && !res.Active.Idle {
		m.traceEvent(Event{Time: m.now, Kind: obs.KindPartitionSwitch,
			Partition: res.Active.Partition, Detail: res.Active.String()})
	}
	if res.Active.Idle {
		return nil
	}
	pt := m.byOrdinal[res.Ordinal]
	violations := pt.pal.TickAnnounce(res.ElapsedTicks)
	for _, v := range violations {
		m.traceEvent(Event{Time: m.now, Kind: obs.KindDeadlineMiss,
			Partition: pt.name, Process: v.Entry.Name,
			Detail: fmt.Sprintf("deadline %d missed, detected at %d → %s",
				v.Entry.Deadline, v.Detected, v.Decision.Action),
			Latency: v.Detected - v.Entry.Deadline})
		pt.applyProcessDecision(v.Entry.Name, v.Decision)
		if m.halted {
			return nil
		}
	}
	if pt.mode == model.ModeNormal {
		pt.runOneTick()
	}
	return nil
}

// Run executes n ticks (stopping early if the module halts).
func (m *Module) Run(n tick.Ticks) error {
	for i := tick.Ticks(0); i < n; i++ {
		if err := m.Step(); err != nil {
			if errors.Is(err, ErrHalted) {
				return nil
			}
			return err
		}
		if m.halted {
			return nil
		}
	}
	return nil
}

// Shutdown stops all process goroutines and halts the module. It is safe to
// call multiple times.
func (m *Module) Shutdown() {
	for _, name := range m.order {
		m.partitions[name].killAll()
	}
	m.halted = true
	m.bus.Flush()
}

// restoreContext is the Dispatcher's RestoreContext hook: it installs the
// heir partition's MMU context (Sect. 2.1: the high-level description mapped
// to the processor's memory protection mechanisms on every context switch).
func (m *Module) restoreContext(p model.PartitionName) {
	// The context was mapped at Start; a failure here would be a PMK bug.
	if err := m.memory.SetContext(p); err != nil {
		m.applyModuleDecision(m.health.ReportModule(hm.ErrConfigError, err.Error()))
	}
}

// applyModuleDecision carries out a module-level Health Monitor decision.
// Module-level errors know no finer containment domain, so anything beyond
// logging escalates to a module reset or shutdown.
func (m *Module) applyModuleDecision(d hm.Decision) {
	switch d.Action {
	case hm.ActionResetModule:
		m.resetModule()
	case hm.ActionShutdownModule:
		m.shutdownModule()
	}
}

// applyPendingScheduleAction is the Dispatcher's line-9 hook: the first time
// a partition is dispatched after a schedule switch, its configured
// ScheduleChangeAction is performed (Sect. 4.3).
func (m *Module) applyPendingScheduleAction(p model.PartitionName) {
	action, ok := m.sched.ConsumePendingAction(p)
	if !ok || action == model.ActionSkip {
		return
	}
	pt := m.partitions[p]
	m.traceEvent(Event{Time: m.now, Kind: obs.KindPartitionRestart, Partition: p,
		Detail: "schedule change action: " + action.String()})
	switch action {
	case model.ActionColdStart:
		pt.restart(model.ModeColdStart)
	case model.ActionWarmStart:
		pt.restart(model.ModeWarmStart)
	}
}

// Now returns the global system clock tick counter.
func (m *Module) Now() tick.Ticks { return m.now }

// Halted reports whether the module stopped (SHUTDOWN_MODULE or Shutdown).
func (m *Module) Halted() bool { return m.halted }

// Health exposes the Health Monitor (diagnostics, tests).
func (m *Module) Health() *hm.Monitor { return m.health }

// ScheduleStatus returns the module schedule status (Sect. 4.2).
func (m *Module) ScheduleStatus() apex.ModuleScheduleStatus {
	return m.scheduleStatus()
}

// ActivePartition returns the partition currently holding the processor.
func (m *Module) ActivePartition() pmk.Heir { return m.disp.Active() }

// Partition returns a partition's runtime by name (diagnostics, tests).
func (m *Module) Partition(name model.PartitionName) (*Partition, error) {
	pt, ok := m.partitions[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPartitionID, name)
	}
	return pt, nil
}

// Partitions returns the partition names in configuration order.
func (m *Module) Partitions() []model.PartitionName {
	out := make([]model.PartitionName, len(m.order))
	copy(out, m.order)
	return out
}

// Memory exposes the MMU (diagnostics, tests, examples exercising spatial
// partitioning directly).
func (m *Module) Memory() *mmu.MMU { return m.memory }

// Router exposes the IPC router (diagnostics).
func (m *Module) Router() *ipc.Router { return m.router }

// resetModule applies the RESET_MODULE recovery action: every partition is
// cold-started and the clock keeps running.
func (m *Module) resetModule() {
	m.traceEvent(Event{Time: m.now, Kind: obs.KindModuleReset, Detail: "RESET_MODULE"})
	for _, name := range m.order {
		m.partitions[name].restart(model.ModeColdStart)
	}
	if m.recov != nil {
		// A module reset is a fresh start for every partition's recovery
		// state, but it is also the strongest possible module-level error
		// signal: activate the degradation ladder's module-error rung.
		m.recov.Reset()
		m.recov.NoteModuleError(m.now)
	}
}

// Recovery exposes the recovery orchestration engine (nil when no policy is
// configured) for diagnostics and campaign reporting.
func (m *Module) Recovery() *recovery.Engine { return m.recov }

// recoveryRestart is the engine's Restart hook: it executes a granted (or
// resumed/probe) partition restart. The trace event's Latency field carries
// the restart-budget window occupancy at grant time so the spine's
// restarts-per-window histogram sees only engine-arbitrated restarts.
func (m *Module) recoveryRestart(p model.PartitionName, mode model.OperatingMode, reason string, occupancy int) {
	pt, ok := m.partitions[p]
	if !ok {
		return
	}
	m.traceEvent(Event{Time: m.now, Kind: obs.KindPartitionRestart, Partition: p,
		Detail: "recovery: " + reason, Latency: tick.Ticks(occupancy)})
	pt.restart(mode)
}

// recoverySwitchSchedule is the engine's SwitchSchedule hook: the degradation
// ladder requests a module schedule switch (effective at the next MTF
// boundary, exactly like SET_MODULE_SCHEDULE).
func (m *Module) recoverySwitchSchedule(name string) bool {
	_, id, ok := m.sys.ScheduleByName(name)
	if !ok {
		return false
	}
	st := m.sched.Status()
	if err := m.sched.RequestSwitch(id); err != nil {
		return false
	}
	if st.Next != id {
		m.traceEvent(Event{Time: m.now, Kind: obs.KindScheduleSwitch,
			Detail: "recovery requested schedule " + name})
	}
	return true
}

// currentScheduleName names the schedule the ladder should treat as the
// restore target: the pending one if a switch is queued, else the current.
func (m *Module) currentScheduleName() string {
	st := m.sched.Status()
	return m.sys.Schedules[st.Next].Name
}

// shutdownModule applies the SHUTDOWN_MODULE recovery action.
func (m *Module) shutdownModule() {
	m.traceEvent(Event{Time: m.now, Kind: obs.KindModuleHalt, Detail: "SHUTDOWN_MODULE"})
	m.Shutdown()
}
