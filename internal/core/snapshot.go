// Module snapshot/fork: a quiescent module can be frozen into a Snapshot
// and forked into independent deep copies that continue ticking
// byte-identically to the parent. The motivating use is campaign prefix
// sharing (cmd/aircampaign -fork-prefix): a fault campaign's runs share one
// fault-free warm-up prefix, ticked once, and each run forks the snapshot
// and injects its fault variant instead of re-simulating the prefix from
// zero.
//
// Application goroutines cannot be copied, so forking relies on two
// contracts:
//
//   - Processes are created with CreateForkableProcess: state lives in an
//     explicit cell the runtime clones, and the body is an infinite loop
//     ending in PeriodicWait, so re-entering the body from the top with the
//     cloned cell is indistinguishable from resuming inside PeriodicWait.
//
//   - The snapshot is taken at a quiescent point: every live process is
//     parked in PeriodicWait (or still awaiting its delayed first dispatch),
//     which Snapshot validates and refuses otherwise. The tail ticks of a
//     major time frame satisfy this in practice — all periodic work for the
//     frame has completed and the next releases are at the frame boundary.
package core

import (
	"errors"
	"fmt"
	"maps"

	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/pos"
	"air/internal/tick"
)

// ForkableBody is the snapshot/fork-portable form of a process body. New
// allocates a fresh state cell (process start and restart), Clone
// deep-copies a cell (module fork), and Run is the body proper, reading and
// writing only the given cell plus APEX services. Run must be an infinite
// loop whose iterations end in sv.PeriodicWait(), so the loop top coincides
// with the body entry point. The partition registers every process body in
// this form: a CreateProcess closure body has only Run set and cannot be
// forked.
type ForkableBody struct {
	New   func() any
	Clone func(state any) any
	Run   func(sv *Services, state any)
}

// ErrNotForkable is wrapped by every Snapshot rejection reason.
var ErrNotForkable = errors.New("core: module state is not forkable")

// Snapshot is a frozen image of a quiescent module. It holds the parent
// module, which must not be stepped again while forks are taken — Fork is
// read-only on the parent, so concurrent Fork calls (campaign workers) are
// safe.
type Snapshot struct {
	parent *Module
}

// Snapshot validates that the module is at a quiescent, forkable point and
// freezes it. The parent module remains usable, but stepping it invalidates
// the snapshot's fork guarantees (forks taken afterwards would copy the
// advanced state instead).
func (m *Module) Snapshot() (*Snapshot, error) {
	if err := m.forkableNow(); err != nil {
		return nil, err
	}
	// Hand staged batched events to the sinks so forks start from a clean
	// staging buffer and the cloned ring holds the full prefix trace.
	m.bus.Flush()
	return &Snapshot{parent: m}, nil
}

// Fork deep-copies the snapshot into an independent module: same clock,
// same kernel/PAL/scheduler state, same metrics and retained trace, fresh
// goroutines re-entered from their body tops with cloned state cells.
// Ticking the fork produces byte-identical traces to ticking the parent.
// Fork is read-only on the parent, so concurrent calls are safe.
func (s *Snapshot) Fork() (*Module, error) {
	return s.parent.fork()
}

// Fork is the one-shot convenience: Snapshot followed by a single Fork.
func (m *Module) Fork() (*Module, error) {
	snap, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.Fork()
}

// forkableNow validates the quiescence and copyability preconditions.
func (m *Module) forkableNow() error {
	if !m.started {
		return fmt.Errorf("%w: module not started", ErrNotForkable)
	}
	if m.halted {
		return fmt.Errorf("%w: module halted", ErrNotForkable)
	}
	if m.cfg.Shared != nil {
		return fmt.Errorf("%w: multicore shared platform", ErrNotForkable)
	}
	for _, name := range m.order {
		if err := m.partitions[name].forkableNow(); err != nil {
			return err
		}
	}
	return nil
}

func (pt *Partition) forkableNow() error {
	if len(pt.cfg.Devices) > 0 {
		return fmt.Errorf("%w: partition %s maps devices (device state is external)",
			ErrNotForkable, pt.name)
	}
	if pt.handler != nil {
		return fmt.Errorf("%w: partition %s has an error handler installed (a closure the fork cannot copy)",
			ErrNotForkable, pt.name)
	}
	if pt.pendingFaultDecision != nil || pt.pendingPartitionDecision != nil || pt.deferredMode != 0 {
		return fmt.Errorf("%w: partition %s has pending kernel operations", ErrNotForkable, pt.name)
	}
	for _, proc := range pt.kernel.Processes() {
		fb := pt.bodies[proc.ID]
		if fb.Run != nil && fb.Clone == nil {
			return fmt.Errorf("%w: partition %s process %s has an opaque closure body; use CreateForkableProcess",
				ErrNotForkable, pt.name, proc.Spec.Name)
		}
		rt := pt.runtime(proc.ID)
		if rt == nil || !rt.alive {
			continue // dormant or model-only: kernel state only, no goroutine
		}
		if fb.Run == nil {
			return fmt.Errorf("%w: partition %s live process %s has no forkable body",
				ErrNotForkable, pt.name, proc.Spec.Name)
		}
		if proc.State != model.StateWaiting {
			return fmt.Errorf("%w: partition %s process %s is %s (not quiescent)",
				ErrNotForkable, pt.name, proc.Spec.Name, proc.State)
		}
		switch {
		case proc.WaitingOn == pos.WaitPeriod:
			// Parked in PeriodicWait: loop top ≡ body entry by contract.
		case proc.WaitingOn == pos.WaitDelay && !rt.everGranted:
			// DELAYED_START, never dispatched: still parked at body entry.
		default:
			return fmt.Errorf("%w: partition %s process %s waits on %s mid-body",
				ErrNotForkable, pt.name, proc.Spec.Name, proc.WaitingOn)
		}
	}
	return nil
}

// fork assembles the deep copy: every component is cloned from the parent
// instead of built fresh, then bound to the fork as NewModule binds a new
// module.
func (m *Module) fork() (*Module, error) {
	cfg := m.cfg
	cfg.Sinks = nil // external sinks are not duplicated onto forks
	m2 := &Module{
		cfg:        cfg,
		sys:        m.sys,
		partitions: make(map[model.PartitionName]*Partition, len(m.partitions)),
		order:      append([]model.PartitionName(nil), m.order...),
		now:        m.now,
		started:    true,
		coreID:     m.coreID,
	}
	m2.bus = obs.NewBus()
	m2.bus.AdoptMetrics(m.bus.Metrics())
	m2.ring = m.ring.Clone()
	if m2.ring != nil {
		m2.bus.Attach(m2.ring)
	}
	em := obs.NewEmitter(m2.bus, m2.coreID)
	m2.memory = m.memory.Clone()
	m2.router = m.router.Clone(em)
	m2.health = m.health.Clone(m2.Now, em)
	m2.sched = m.sched.Clone()
	m2.disp = m.disp.Clone(m2.sched)
	m2.bind()

	for _, name := range m.order {
		pt2, err := m.partitions[name].fork(m2)
		if err != nil {
			return nil, err
		}
		m2.partitions[name] = pt2
	}
	m2.indexPartitions()

	if m.recov != nil {
		m2.recov = m.recov.Clone(m2.recoveryOptions())
	}
	return m2, nil
}

// fork deep-copies one partition into the fork module: kernel + PAL pair,
// APEX objects, port bindings re-resolved against the fork's router, and a
// fresh goroutine per live process carrying a cloned state cell.
func (pt *Partition) fork(m2 *Module) (*Partition, error) {
	pt2 := &Partition{
		mod:        m2,
		cfg:        pt.cfg,
		name:       pt.name,
		system:     pt.system,
		mode:       pt.mode,
		postInit:   pt.postInit,
		noProgress: pt.noProgress,
		startCount: pt.startCount,
	}
	nowFn := func() tick.Ticks { return m2.now }
	pal2 := pt.pal.Clone(m2.health, nowFn)
	k2 := pt.kernel.Clone(nowFn, pal2, obs.NewEmitter(m2.bus, m2.coreID))
	pal2.Bind(k2)
	pt2.kernel = k2
	pt2.pal = pal2

	pt2.bodies = maps.Clone(pt.bodies)

	pt2.buffers = make(map[string]*buffer, len(pt.buffers))
	pt2.blackboards = make(map[string]*blackboard, len(pt.blackboards))
	pt2.semaphores = make(map[string]*semaphore, len(pt.semaphores))
	pt2.events = make(map[string]*eventObj, len(pt.events))
	pt2.sampPorts = make(map[string]*samplingPort, len(pt.sampPorts))
	pt2.queuePorts = make(map[string]*queuingPort, len(pt.queuePorts))
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for name, b := range pt.buffers {
		cp := &buffer{name: b.name, maxMessage: b.maxMessage, depth: b.depth,
			senders: cloneWaitQueue(b.senders), receivers: cloneWaitQueue(b.receivers)}
		cp.queue = make([][]byte, len(b.queue))
		for i, msg := range b.queue {
			cp.queue[i] = append([]byte(nil), msg...)
		}
		pt2.buffers[name] = cp
	}
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for name, bb := range pt.blackboards {
		cp := &blackboard{name: bb.name, maxMessage: bb.maxMessage,
			displayed: bb.displayed, readers: cloneWaitQueue(bb.readers)}
		cp.message = append([]byte(nil), bb.message...)
		pt2.blackboards[name] = cp
	}
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for name, s := range pt.semaphores {
		pt2.semaphores[name] = &semaphore{name: s.name, value: s.value, max: s.max,
			waiters: cloneWaitQueue(s.waiters)}
	}
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for name, e := range pt.events {
		pt2.events[name] = &eventObj{name: e.name, up: e.up,
			waiters: cloneWaitQueue(e.waiters)}
	}
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for name, sp := range pt.sampPorts {
		ch, err := m2.router.Sampling(sp.channel.Config().Name)
		if err != nil {
			return nil, fmt.Errorf("%w: fork lost sampling channel %s", ErrNotForkable, sp.channel.Config().Name)
		}
		pt2.sampPorts[name] = &samplingPort{name: sp.name, direction: sp.direction,
			channel: ch, lastValidity: sp.lastValidity}
	}
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for name, qp := range pt.queuePorts {
		ch, err := m2.router.Queuing(qp.channel.Config().Name)
		if err != nil {
			return nil, fmt.Errorf("%w: fork lost queuing channel %s", ErrNotForkable, qp.channel.Config().Name)
		}
		pt2.queuePorts[name] = &queuingPort{name: qp.name, direction: qp.direction, channel: ch}
	}

	// Re-spawn each live process from its body entry point with a cloned
	// state cell (quiescence validation already proved entry ≡ parked
	// point). Iterating the kernel's process table keeps spawn order
	// deterministic, though re-spawned goroutines only run when granted.
	for _, proc := range pt.kernel.Processes() {
		rt := pt.runtime(proc.ID)
		if rt == nil || !rt.alive {
			continue
		}
		fb := pt.bodies[proc.ID]
		pt2.spawnBody(proc.ID, fb, fb.Clone(rt.state))
		pt2.runtime(proc.ID).stackUsed = rt.stackUsed
	}
	return pt2, nil
}

// cloneWaitQueue copies a wait queue's discipline and arrival counter. At a
// quiescent point no process can be blocked on an APEX object (it would
// fail validation), so the items slice is provably empty.
func cloneWaitQueue(q waitQueue) waitQueue {
	return waitQueue{discipline: q.discipline, seq: q.seq}
}

// Inject runs integration code against one partition with
// initialization-mode privileges — the hook fault campaigns use to install
// fault injectors on a forked module after the shared fault-free prefix. A
// non-nil process table replaces the partition's HM process-level rules
// first (the injector-merged table the variant would have been built with).
// The injected code re-runs on every partition restart, after the
// configured Init, exactly like configuration-time injector installation.
func (m *Module) Inject(p model.PartitionName, processTable hm.Table, fn InitFunc) error {
	pt, ok := m.partitions[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPartitionID, p)
	}
	if processTable != nil {
		m.health.SetProcessTable(p, processTable)
	}
	if fn == nil {
		return nil
	}
	if prev := pt.postInit; prev != nil {
		pt.postInit = func(sv *Services) { prev(sv); fn(sv) }
	} else {
		pt.postInit = fn
	}
	mode := pt.mode
	if mode == model.ModeNormal {
		pt.mode = model.ModeColdStart
	}
	fn(pt.services(pos.InvalidProcess, nil))
	pt.mode = mode
	return nil
}

// SetHangTicks arms (or disarms) the partition liveness watchdog at
// runtime. Campaign prefix sharing needs this because the watchdog
// threshold is a module-level setting chosen per fault variant, after the
// shared prefix was built.
func (m *Module) SetHangTicks(t tick.Ticks) {
	if t < 0 {
		t = 0
	}
	m.cfg.HangTicks = t
}
