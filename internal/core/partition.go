package core

import (
	"fmt"
	"runtime"
	"strings"

	"air/internal/hm"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/pal"
	"air/internal/pos"
	"air/internal/recovery"
	"air/internal/tick"
)

// Default addressing-space layout installed when a partition config does not
// override Descriptors: code (r-x), data (rw-), stack (rw-).
var defaultDescriptors = []mmu.Descriptor{
	{Section: mmu.SectionCode, Base: 0x0000_0000, Size: 16 * mmu.PageSize,
		AppPerms: mmu.Read | mmu.Execute, POSPerms: mmu.Read | mmu.Execute},
	{Section: mmu.SectionData, Base: 0x0010_0000, Size: 64 * mmu.PageSize,
		AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
	{Section: mmu.SectionStack, Base: 0x0020_0000, Size: 16 * mmu.PageSize,
		AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
}

// yieldKind is what a process goroutine reports back after a grant.
type yieldKind int

const (
	// yieldConsumed: the process used its granted tick computing.
	yieldConsumed yieldKind = iota + 1
	// yieldBlocked: the process transitioned to waiting without consuming
	// the tick; the POS scheduler picks the next heir within the same tick.
	yieldBlocked
	// yieldDone: the process body returned (or faulted) and stopped.
	yieldDone
)

// killSentinel is panicked into a process goroutine to force-terminate it.
type killSentinel struct{}

// procRuntime is the kernel side of one process goroutine handshake: the
// kernel sends on grant, the process answers on yield, and the kernel kills
// the process by closing grant and waiting for done to close.
type procRuntime struct {
	grant chan struct{}
	yield chan yieldKind
	done  chan struct{}
	alive bool
	// state is the body's state cell: ForkableBody.New on a (re)start, a
	// Clone of the parent's cell on fork re-spawn, nil for closure bodies.
	state any
	// stackUsed tracks the simulated stack consumption for STACK_OVERFLOW
	// detection (Services.StackProbe).
	stackUsed int
	// everGranted records whether the goroutine has ever received a grant:
	// a never-granted goroutine is still parked at the body's entry point
	// (DELAYED_START), which snapshot quiescence validation treats as
	// fork-safe — the fork re-enters the body from the top.
	everGranted bool
}

// waitGrant parks the process until its next granted tick; a closed grant
// channel is the kernel's kill.
func (rt *procRuntime) waitGrant() {
	if _, ok := <-rt.grant; !ok {
		panic(killSentinel{})
	}
}

// stop force-terminates the process goroutine, if still alive, and waits
// for it to exit. A live process is always parked in waitGrant when the
// kernel runs, so the close wakes exactly that receive.
func (rt *procRuntime) stop() {
	if rt.alive {
		close(rt.grant)
		<-rt.done
		rt.alive = false
	}
}

// Partition is the runtime containment domain of one partition: its POS
// kernel and PAL instance, its process goroutines, its APEX objects and its
// ports (paper Sect. 2: "a (system) application, and the given APEX
// interface, POS and AIR PAL instances compose the containment domain of
// each partition").
type Partition struct {
	mod *Module
	cfg PartitionConfig

	name   model.PartitionName
	system bool
	mode   model.OperatingMode

	kernel *pos.Kernel
	pal    *pal.PAL

	// runtimes holds each spawned process's handshake, indexed by
	// ProcessID-1 as the POS kernel's process table is; nil where no
	// goroutine was spawned or its process was killed.
	runtimes []*procRuntime
	// bodies holds every process's body: a forkable body as registered, a
	// closure body wrapped with only Run set, the zero value for a
	// model-only process.
	bodies  map[pos.ProcessID]ForkableBody
	handler ErrorHandler
	// postInit is integration code injected after construction (fault
	// injection on forked modules, Module.Inject). It re-runs with
	// initialization-mode privileges on every partition restart, exactly as
	// configuration-time Init code does.
	postInit InitFunc

	buffers     map[string]*buffer
	blackboards map[string]*blackboard
	semaphores  map[string]*semaphore
	events      map[string]*eventObj
	sampPorts   map[string]*samplingPort
	queuePorts  map[string]*queuingPort

	// pendingFaultDecision holds a process-level HM decision raised on a
	// process goroutine (application panic, RAISE_APPLICATION_ERROR) until
	// the kernel side of the handshake applies it.
	pendingFaultDecision *faultDecision
	// pendingPartitionDecision likewise for partition-level decisions
	// (memory violations) raised on a process goroutine.
	pendingPartitionDecision *hm.Decision
	// deferredMode holds a SET_PARTITION_MODE transition requested by a
	// process (idle/coldStart/warmStart), applied kernel-side after the
	// requesting process terminates.
	deferredMode model.OperatingMode

	// noProgress counts consecutive granted ticks consumed without any
	// process completing or blocking — the liveness watchdog's evidence of a
	// no-progress hang (Config.HangTicks).
	noProgress tick.Ticks

	startCount int
}

// newPartition builds a partition's runtime and registers its health
// monitoring rules with the module's monitor.
func newPartition(m *Module, cfg PartitionConfig) *Partition {
	if cfg.HMPartitionTable != nil {
		m.health.SetPartitionTable(cfg.Name, cfg.HMPartitionTable)
	}
	if cfg.HMProcessTable != nil {
		m.health.SetProcessTable(cfg.Name, cfg.HMProcessTable)
	}
	pt := &Partition{
		mod:    m,
		cfg:    cfg,
		name:   cfg.Name,
		system: cfg.System,
		mode:   model.ModeIdle,
	}
	pt.buildKernel()
	pt.clearObjects()
	return pt
}

// buildKernel creates a fresh POS kernel + PAL pair for the partition.
func (pt *Partition) buildKernel() {
	nowFn := func() tick.Ticks { return pt.mod.now }
	var queue pal.DeadlineQueue // nil: pal.New installs the list
	if pt.cfg.Queue == QueueTree {
		queue = pal.NewTreeQueue()
	}
	p := pal.New(pal.Config{
		Partition: pt.name,
		Queue:     queue,
		Health:    pt.mod.health,
		Now:       nowFn,
	})
	k := pos.NewKernel(pos.Options{
		Partition:    pt.name,
		Policy:       pt.cfg.Policy,
		Now:          nowFn,
		Observer:     p,
		MaxProcesses: pt.cfg.MaxProcesses,
		Obs:          obs.NewEmitter(pt.mod.bus, pt.mod.coreID),
	})
	p.Bind(k)
	pt.kernel = k
	pt.pal = p
	pt.runtimes = nil
	pt.bodies = make(map[pos.ProcessID]ForkableBody)
}

func (pt *Partition) clearObjects() {
	pt.buffers = make(map[string]*buffer)
	pt.blackboards = make(map[string]*blackboard)
	pt.semaphores = make(map[string]*semaphore)
	pt.events = make(map[string]*eventObj)
	pt.sampPorts = make(map[string]*samplingPort)
	pt.queuePorts = make(map[string]*queuingPort)
	pt.handler = nil
	pt.mod.health.SetHandlerInstalled(pt.name, false)
}

// stackBytes returns the total size of the partition's stack sections.
func (pt *Partition) stackBytes() int {
	total := 0
	for _, d := range pt.mod.memory.Descriptors(pt.name) {
		if d.Section == mmu.SectionStack {
			total += int(d.Size)
		}
	}
	return total
}

// mapSpace installs the partition's addressing space descriptors and
// memory-mapped devices.
func (pt *Partition) mapSpace() error {
	descriptors := pt.cfg.Descriptors
	if descriptors == nil {
		descriptors = defaultDescriptors
	}
	if err := pt.mod.memory.MapSpace(mmu.SpaceSpec{
		Partition:   pt.name,
		Descriptors: descriptors,
	}); err != nil {
		return err
	}
	for _, dm := range pt.cfg.Devices {
		if err := pt.mod.memory.MapDevice(pt.name, dm.Base, dm.Size,
			dm.AppPerms, dm.POSPerms, dm.Device); err != nil {
			return fmt.Errorf("partition %s: %w", pt.name, err)
		}
	}
	return nil
}

// coldStart runs the partition's initialization in coldStart mode.
func (pt *Partition) coldStart() {
	pt.mode = model.ModeColdStart
	pt.startCount++
	pt.runInit()
}

// warmStart runs the initialization in warmStart mode, preserving the
// process table, ports and objects.
func (pt *Partition) warmStart() {
	pt.mode = model.ModeWarmStart
	pt.startCount++
	pt.runInit()
}

func (pt *Partition) runInit() {
	if pt.cfg.Init == nil {
		// No initialization code: the partition boots straight to normal,
		// which models configuration-only partitions.
		pt.mode = model.ModeNormal
	} else {
		pt.cfg.Init(pt.services(pos.InvalidProcess, nil))
	}
	if pt.postInit != nil {
		// Injected integration code runs with initialization-mode
		// privileges even when Init already transitioned to normal, so it
		// can create/start processes like configuration-time code.
		prev := pt.mode
		if prev == model.ModeNormal {
			pt.mode = model.ModeColdStart
		}
		pt.postInit(pt.services(pos.InvalidProcess, nil))
		pt.mode = prev
	}
}

// restart applies a cold or warm partition restart: all process goroutines
// are terminated and initialization re-runs. Cold start additionally wipes
// the process table and all APEX objects.
func (pt *Partition) restart(mode model.OperatingMode) {
	pt.killAll()
	pt.noProgress = 0
	switch mode {
	case model.ModeColdStart:
		// A cold start is a fresh incarnation of the partition: stale HM
		// escalation counters must not survive it, or a fault in the new
		// incarnation inherits the old one's strike history.
		pt.mod.health.ResetPartition(pt.name)
		pt.buildKernel()
		pt.clearObjects()
		pt.coldStart()
	default:
		pt.kernel.ResetAll()
		pt.resetWaitQueues()
		pt.warmStart()
	}
}

// stop shuts the partition down (idle mode): all processes terminated,
// scheduler disabled.
func (pt *Partition) stop() {
	pt.killAll()
	pt.noProgress = 0
	pt.kernel.ResetAll()
	pt.resetWaitQueues()
	pt.mode = model.ModeIdle
	pt.mod.traceEvent(Event{Time: pt.mod.now, Kind: obs.KindPartitionStopped,
		Partition: pt.name, Detail: "partition set to idle"})
}

// resetWaitQueues clears waiters from all APEX objects (the waiting
// processes were terminated).
//
//air:allow(maprange): every queue is cleared independently; order-insensitive
func (pt *Partition) resetWaitQueues() {
	for _, b := range pt.buffers {
		b.senders.clear()
		b.receivers.clear()
	}
	for _, bb := range pt.blackboards {
		bb.readers.clear()
	}
	for _, s := range pt.semaphores {
		s.waiters.clear()
	}
	for _, e := range pt.events {
		e.waiters.clear()
	}
}

// runtime returns a process's handshake, or nil when none was spawned.
func (pt *Partition) runtime(id pos.ProcessID) *procRuntime {
	if i := int(id) - 1; i >= 0 && i < len(pt.runtimes) {
		return pt.runtimes[i]
	}
	return nil
}

// killAll force-terminates every live process goroutine, in process-ID
// order.
func (pt *Partition) killAll() {
	for _, rt := range pt.runtimes {
		if rt != nil {
			rt.stop()
		}
	}
	clear(pt.runtimes)
}

// killProcess stops a process (it becomes dormant) and force-terminates its
// goroutine (used by Stop-type actions originating outside the process
// itself).
func (pt *Partition) killProcess(id pos.ProcessID) {
	_ = pt.kernel.Stop(id)
	if rt := pt.runtime(id); rt != nil {
		rt.stop()
		pt.runtimes[id-1] = nil
	}
}

// spawn starts the goroutine for a started process. A forkable process gets
// a fresh state cell from its constructor: a process (re)start is a new
// activation of the body, so state resets with it.
func (pt *Partition) spawn(id pos.ProcessID) {
	fb := pt.bodies[id]
	if fb.Run == nil {
		return // model-only process: pure time consumer
	}
	var state any
	if fb.New != nil {
		state = fb.New()
	}
	pt.spawnBody(id, fb, state)
}

// spawnBody starts the goroutine running fb.Run around the given state cell.
// The goroutine waits for its first grant (first dispatch) before running
// the body.
func (pt *Partition) spawnBody(id pos.ProcessID, fb ForkableBody, state any) {
	rt := &procRuntime{
		grant: make(chan struct{}),
		yield: make(chan yieldKind),
		done:  make(chan struct{}),
		alive: true,
		state: state,
	}
	for len(pt.runtimes) < int(id) {
		pt.runtimes = append(pt.runtimes, nil)
	}
	pt.runtimes[id-1] = rt
	sv := pt.services(id, rt)
	//air:allow(goroutine): process runtimes are goroutines by design, lock-stepped with the kernel via the grant/yield handshake
	go func() {
		defer close(rt.done)
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			switch r.(type) {
			case killSentinel:
				// Kernel-initiated termination; the kernel side is not
				// waiting on the yield channel.
				return
			case stopSentinel:
				// Self-termination (StopSelf, deferred mode change,
				// self-affecting recovery): kernel state already settled.
				rt.yield <- yieldDone
				return
			default:
				// Application fault: contained within the partition,
				// reported as a process-level error — arithmetic traps
				// classify as NUMERIC_ERROR, everything else as
				// APPLICATION_ERROR (Sect. 2.4 error classes).
				name := spec(pt, id)
				decision := pt.mod.health.ReportProcess(pt.name, name,
					classifyPanic(r), fmt.Sprintf("process panic: %v", r))
				_ = pt.kernel.Stop(id)
				rt.alive = false
				pt.pendingFaultDecision = &faultDecision{name: name, decision: decision}
				rt.yield <- yieldDone
			}
		}()
		rt.waitGrant()
		fb.Run(sv, state)
		// Normal return: the process stops itself (dormant).
		_ = pt.kernel.Stop(id)
		rt.alive = false
		rt.yield <- yieldDone
	}()
}

// faultDecision carries an HM decision raised on a process goroutine to the
// kernel side of the handshake, where recovery actions are applied.
type faultDecision struct {
	name     string
	decision hm.Decision
}

// runOneTick runs the partition's process scheduling for one granted tick:
// the heir process (eq. 14) executes until it consumes the tick or blocks;
// blocked heirs cascade to the next heir within the same tick.
func (pt *Partition) runOneTick() {
	for {
		proc, ok := pt.kernel.Dispatch()
		if !ok {
			return // no eligible process: the tick idles inside the window
		}
		rt := pt.runtime(proc.ID)
		if rt == nil || !rt.alive {
			// Model-only process: consumes the tick with no observable
			// effect (a pure CPU burner used in analysis/benchmarks).
			return
		}
		rt.everGranted = true
		rt.grant <- struct{}{}
		kind := <-rt.yield
		if pt.applyPendingKernelOps() {
			return // a partition-level transition consumed the tick
		}
		switch kind {
		case yieldConsumed:
			pt.noteTickConsumed()
			return
		case yieldBlocked, yieldDone:
			pt.noProgress = 0
			continue
		}
	}
}

// noteTickConsumed feeds the partition liveness watchdog: a partition whose
// processes consume granted ticks without ever completing or blocking is
// hung in a way deadline monitoring cannot see (a spin with no
// deadline-carrying yield). After Config.HangTicks consecutive such ticks
// the hang is reported to the Health Monitor as a partition-level
// PARTITION_HANG error and its decision applied.
func (pt *Partition) noteTickConsumed() {
	threshold := pt.mod.cfg.HangTicks
	if threshold <= 0 {
		return
	}
	pt.noProgress++
	if pt.noProgress < threshold {
		return
	}
	pt.noProgress = 0
	d := pt.mod.health.ReportPartition(pt.name, hm.ErrPartitionHang,
		fmt.Sprintf("liveness watchdog: no process progress for %d granted ticks", threshold))
	pt.applyPartitionDecision(d)
}

// applyPendingKernelOps applies decisions and mode transitions that a
// process goroutine raised but that must execute on the kernel side of the
// handshake. It returns true when the partition underwent a mode transition
// (restart/stop), which ends the tick.
func (pt *Partition) applyPendingKernelOps() bool {
	if fd := pt.pendingFaultDecision; fd != nil {
		pt.pendingFaultDecision = nil
		if pt.applyProcessDecision(fd.name, fd.decision) {
			return true
		}
	}
	if pd := pt.pendingPartitionDecision; pd != nil {
		pt.pendingPartitionDecision = nil
		pt.applyPartitionDecision(*pd)
		return true
	}
	if mode := pt.deferredMode; mode != 0 {
		pt.deferredMode = 0
		switch mode {
		case model.ModeIdle:
			pt.stop()
		case model.ModeColdStart, model.ModeWarmStart:
			pt.mod.traceEvent(Event{Time: pt.mod.now, Kind: obs.KindPartitionRestart,
				Partition: pt.name, Detail: "SET_PARTITION_MODE " + mode.String()})
			pt.restart(mode)
		}
		return true
	}
	return false
}

// classifyPanic maps a recovered panic value onto the ARINC 653 error
// class: arithmetic runtime traps (divide by zero, shift range) are
// NUMERIC_ERROR; everything else is APPLICATION_ERROR.
func classifyPanic(r any) hm.ErrorCode {
	err, ok := r.(runtime.Error)
	if !ok {
		return hm.ErrApplicationError
	}
	msg := err.Error()
	if strings.Contains(msg, "divide by zero") || strings.Contains(msg, "shift") ||
		strings.Contains(msg, "floating point") {
		return hm.ErrNumericError
	}
	return hm.ErrApplicationError
}

// spec returns a process's name for diagnostics, tolerating lookup failure.
func spec(pt *Partition, id pos.ProcessID) string {
	if p, err := pt.kernel.Get(id); err == nil {
		return p.Spec.Name
	}
	return fmt.Sprintf("pid%d", id)
}

// services builds a Services facade bound to this partition and optionally
// to a process (rt non-nil for process context).
func (pt *Partition) services(id pos.ProcessID, rt *procRuntime) *Services {
	return &Services{mod: pt.mod, pt: pt, pid: id, rt: rt}
}

// applyProcessDecision carries out a Health Monitor decision for a
// process-level error (Sect. 5 recovery actions). It reports whether the
// decision acted on the whole partition or module.
func (pt *Partition) applyProcessDecision(process string, d hm.Decision) bool {
	m := pt.mod
	// Any supervised recovery action counts as progress for the liveness
	// watchdog: the partition is faulty but not silently hung.
	pt.noProgress = 0
	switch d.Action {
	case hm.ActionIgnore:
		// Logged by the HM; no recovery.
	case hm.ActionInvokeHandler:
		if pt.handler != nil {
			pt.handler(pt.services(pos.InvalidProcess, nil), d.Event)
		}
	case hm.ActionStopProcess:
		pt.stopProcessByName(process)
		m.traceEvent(Event{Time: m.now, Kind: obs.KindProcessStopped,
			Partition: pt.name, Process: process, Detail: "HM stop"})
	case hm.ActionRestartProcess:
		pt.stopProcessByName(process)
		if proc, err := pt.kernel.Lookup(process); err == nil {
			if err := pt.kernel.Start(proc.ID); err == nil {
				pt.spawn(proc.ID)
			}
		}
		m.traceEvent(Event{Time: m.now, Kind: obs.KindProcessRestarted,
			Partition: pt.name, Process: process, Detail: "HM restart"})
	case hm.ActionWarmStartPartition, hm.ActionColdStartPartition,
		hm.ActionStopPartition, hm.ActionResetModule, hm.ActionShutdownModule:
		pt.applyPartitionDecision(d)
		return true
	}
	return false
}

// applyPartitionDecision carries out a decision for a partition-level error.
func (pt *Partition) applyPartitionDecision(d hm.Decision) {
	m := pt.mod
	switch d.Action {
	case hm.ActionIgnore, hm.ActionInvokeHandler:
		// Partition-level errors have no application handler; treat as log.
	case hm.ActionWarmStartPartition:
		pt.requestRestart(model.ModeWarmStart, "HM warm start")
	case hm.ActionColdStartPartition:
		pt.requestRestart(model.ModeColdStart, "HM cold start")
	case hm.ActionStopPartition:
		pt.stop()
	case hm.ActionResetModule:
		m.resetModule()
	case hm.ActionShutdownModule:
		m.shutdownModule()
	default:
		pt.stop()
	}
}

// requestRestart routes an HM-decided partition restart through the module's
// recovery engine when one is configured. An allowed restart executes
// immediately (the trace event's Latency carries the restart-budget window
// occupancy); a deferred or quarantined restart drives the partition to idle
// instead — the engine revives it from Module.Step once the backoff or
// cooldown elapses.
func (pt *Partition) requestRestart(mode model.OperatingMode, detail string) {
	m := pt.mod
	if m.recov == nil {
		m.traceEvent(Event{Time: m.now, Kind: obs.KindPartitionRestart,
			Partition: pt.name, Detail: detail})
		pt.restart(mode)
		return
	}
	d := m.recov.RequestRestart(pt.name, mode)
	switch d.Verdict {
	case recovery.VerdictAllow:
		m.traceEvent(Event{Time: m.now, Kind: obs.KindPartitionRestart,
			Partition: pt.name, Detail: detail,
			Latency: tick.Ticks(d.Occupancy)})
		pt.restart(mode)
	default:
		// Deferred or quarantined: the restart storm stops here — the
		// partition idles so healthy partitions keep their windows.
		pt.stop()
	}
}

// stopProcessByName stops a process and terminates its goroutine.
func (pt *Partition) stopProcessByName(name string) {
	if proc, err := pt.kernel.Lookup(name); err == nil {
		pt.killProcess(proc.ID)
	}
}

// Accessors used by tests, diagnostics and the VITRAL front-end.

// Name returns the partition name.
func (pt *Partition) Name() model.PartitionName { return pt.name }

// Mode returns the operating mode M_m(t).
func (pt *Partition) Mode() model.OperatingMode { return pt.mode }

// StartCount returns the number of (re)starts.
func (pt *Partition) StartCount() int { return pt.startCount }

// Kernel exposes the POS kernel (tests/diagnostics).
func (pt *Partition) Kernel() *pos.Kernel { return pt.kernel }

// PAL exposes the PAL instance (tests/diagnostics).
func (pt *Partition) PAL() *pal.PAL { return pt.pal }

// KernelServices returns a kernel-context APEX service facade for the
// partition — the hook used by system-partition tooling, tests and
// ground-command style interaction (e.g. requesting a schedule switch or a
// partition mode change from outside any process). Blocking services return
// InvalidMode on it.
func (pt *Partition) KernelServices() *Services {
	return pt.services(pos.InvalidProcess, nil)
}
