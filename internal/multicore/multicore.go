// Package multicore implements the paper's future-work item (iv): "the
// implications of unforeseen events on the time model ... and parallelism
// between partition time windows on a multicore platform" (Sect. 8).
//
// The design follows the natural AIR extension: each processor core runs its
// own two-level hierarchy — a PMK partition scheduler and dispatcher over
// per-core partition scheduling tables — while the spatial partitioning
// state (physical memory and MMU contexts), the interpartition channel
// router and the Health Monitor are module-wide and shared. Partitions have
// static core affinity (a partition's windows appear on exactly one core),
// which preserves the single-context POS/PAL design inside each partition
// while letting partition time windows of *different* partitions overlap in
// real time across cores.
//
// Execution remains deterministic: at every global tick the cores are
// stepped in index order under the strict-alternation protocol, so a
// multicore run is a reproducible interleaving (core 0's tick-t work
// happens-before core 1's tick-t work).
package multicore

import (
	"errors"
	"fmt"

	"air/internal/core"
	"air/internal/hm"
	"air/internal/ipc"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// Config describes a multicore AIR module.
type Config struct {
	// Cores holds one single-core configuration per processor core: its
	// partitions and its partition scheduling tables. Channel and memory
	// configuration must be left empty on the per-core configs; they are
	// module-wide.
	Cores []core.Config
	// Sampling and Queuing configure the module-wide interpartition
	// channels (they may connect partitions on different cores).
	Sampling []ipc.SamplingConfig
	Queuing  []ipc.QueuingConfig
	// HMModuleTable configures module-level health monitoring.
	HMModuleTable hm.Table
	// MemoryBytes sizes the shared simulated physical memory (0 selects
	// 16 MiB, as for a single-core module).
	MemoryBytes int
	// TraceCapacity bounds the module-wide trace ring shared by all cores
	// (0 inherits Cores[0].TraceCapacity, then obs.DefaultTraceCapacity;
	// <0 disables retention — spine metrics still accumulate). The ring
	// grows to its bound as events arrive and admits the same kinds as a
	// single-core module's.
	TraceCapacity int
	// Sinks attaches additional observability sinks to the shared spine.
	Sinks []obs.Sink
}

// Multicore module errors.
var (
	ErrNoCores          = errors.New("multicore: no cores configured")
	ErrAffinityConflict = errors.New("multicore: partition assigned to more than one core")
	ErrPerCoreChannels  = errors.New("multicore: channels must be configured module-wide")
	ErrUnknownPartition = errors.New("multicore: unknown partition")
)

// Module is a running multicore AIR module.
type Module struct {
	cores  []*core.Module
	shared *core.SharedPlatform
	byPart map[model.PartitionName]int // partition → core index
	now    tick.Ticks
}

// NewModule validates core affinity and builds the module: one core.Module
// per core over one platform, built by core.NewPlatform as a single-core
// module builds its own.
func NewModule(cfg Config) (*Module, error) {
	if len(cfg.Cores) == 0 {
		return nil, ErrNoCores
	}
	byPart := make(map[model.PartitionName]int)
	for i, cc := range cfg.Cores {
		if len(cc.Sampling) != 0 || len(cc.Queuing) != 0 {
			return nil, fmt.Errorf("%w (core %d)", ErrPerCoreChannels, i)
		}
		if cc.Shared != nil {
			return nil, fmt.Errorf("multicore: core %d pre-populates Shared", i)
		}
		for _, pc := range cc.Partitions {
			if prev, dup := byPart[pc.Name]; dup {
				return nil, fmt.Errorf("%w: %s on cores %d and %d",
					ErrAffinityConflict, pc.Name, prev, i)
			}
			byPart[pc.Name] = i
		}
	}

	traceCap := cfg.TraceCapacity
	if traceCap == 0 {
		traceCap = cfg.Cores[0].TraceCapacity
	}
	m := &Module{byPart: byPart}
	// One observability spine spans the whole module: every core emits into
	// it with its own core tag, so the shared ring holds the merged module
	// trace in (time, core) emission order with no post-hoc sorting. The
	// router and the monitor are module-wide: their spine events carry core
	// tag 0 and the monitor is stamped by the global clock.
	shared, err := core.NewPlatform(core.Config{
		Sampling:      cfg.Sampling,
		Queuing:       cfg.Queuing,
		HMModuleTable: cfg.HMModuleTable,
		MemoryBytes:   cfg.MemoryBytes,
		TraceCapacity: traceCap,
	}, m.Now)
	if err != nil {
		return nil, err
	}
	m.shared = shared
	for _, s := range cfg.Sinks {
		shared.Bus.Attach(s)
	}
	for i, cc := range cfg.Cores {
		cc.Shared = shared
		cc.CoreID = i
		cm, err := core.NewModule(cc)
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		m.cores = append(m.cores, cm)
	}
	return m, nil
}

// Start boots every core.
func (m *Module) Start() error {
	for i, c := range m.cores {
		if err := c.Start(); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}

// Step advances the global clock one tick: each core executes its tick in
// index order. MMU contexts are per-access in the shared MMU, so the
// sequential stepping is observationally equivalent to parallel windows.
func (m *Module) Step() error {
	for i, c := range m.cores {
		if c.Halted() {
			continue
		}
		if err := c.Step(); err != nil {
			if errors.Is(err, core.ErrHalted) {
				continue
			}
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	m.now++
	return nil
}

// Run executes n global ticks.
func (m *Module) Run(n tick.Ticks) error {
	for i := tick.Ticks(0); i < n; i++ {
		if m.Halted() {
			return nil
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown stops all cores' process goroutines.
func (m *Module) Shutdown() {
	for _, c := range m.cores {
		c.Shutdown()
	}
}

// Halted reports whether every core halted.
func (m *Module) Halted() bool {
	for _, c := range m.cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// Now returns the global clock.
func (m *Module) Now() tick.Ticks { return m.now }

// Cores returns the number of cores.
func (m *Module) Cores() int { return len(m.cores) }

// Core returns the i-th core's module.
func (m *Module) Core(i int) (*core.Module, error) {
	if i < 0 || i >= len(m.cores) {
		return nil, fmt.Errorf("multicore: no core %d", i)
	}
	return m.cores[i], nil
}

// Partition locates a partition's runtime and its core index.
func (m *Module) Partition(name model.PartitionName) (*core.Partition, int, error) {
	idx, ok := m.byPart[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownPartition, name)
	}
	pt, err := m.cores[idx].Partition(name)
	if err != nil {
		return nil, 0, err
	}
	return pt, idx, nil
}

// Health exposes the shared health monitor.
func (m *Module) Health() *hm.Monitor { return m.shared.Health }

// Memory exposes the shared MMU.
func (m *Module) Memory() *mmu.MMU { return m.shared.Memory }

// Trace returns the module-wide trace. Cores are stepped in index order at
// every global tick, so the shared ring's emission order is already the
// merged (time, core) order — each event carries the emitting core in
// Event.Core. Every core reads the one shared ring; core 0's read flushes a
// batched spine first.
func (m *Module) Trace() []core.Event { return m.cores[0].Trace() }

// TraceKind filters the merged trace.
func (m *Module) TraceKind(kind obs.Kind) []core.Event { return m.cores[0].TraceKind(kind) }

// Bus exposes the module-wide observability spine.
func (m *Module) Bus() *obs.Bus { return m.shared.Bus }

// Metrics returns a snapshot of the shared spine's metrics registry.
func (m *Module) Metrics() obs.Snapshot { return m.shared.Bus.Snapshot() }
