package air

// Benchmark harness regenerating the paper's quantitative and efficiency
// claims (see DESIGN.md per-experiment index and EXPERIMENTS.md for the
// recorded results):
//
//	F1  BenchmarkPartitionScheduler*   — Algorithm 1 cost: best case (two
//	    computations) vs preemption point vs effective schedule switch.
//	F2  BenchmarkDispatcher*           — Algorithm 2 cost: same-partition
//	    fast path vs partition context switch.
//	F3  BenchmarkDeadlineEarliest*     — O(1) earliest-deadline retrieval
//	    (list) vs O(log n) leftmost walk (tree), across queue sizes.
//	F4  BenchmarkDeadlineRegister*,    — Sect. 5.3 ablation: list O(n)
//	    BenchmarkTickAnnounce*           register vs tree O(log n); ISR-side
//	    tick announce cost on both structures.
//	H   BenchmarkProcessHandoff        — the kernel↔process grant/yield
//	    round trip: one process goroutine vs a model-only process.
//	F6  BenchmarkSamplingPort*,        — interpartition communication:
//	    BenchmarkQueuingPort*,           local memory-to-memory vs simulated
//	    BenchmarkMMUCopy                 bus, and the PMK-mediated copy.
//	F7  BenchmarkMMUTranslate*         — spatial partitioning: 3-level table
//	    walk, hit and fault paths.
//	F8  BenchmarkPSTSynthesis,         — offline tooling: EDF-based PST
//	    BenchmarkSchedulability,         generation, two-level analysis and
//	    BenchmarkModelVerify             formal model verification.
//	E*  BenchmarkModuleTick*           — full module cost per tick for the
//	    Sect. 6 prototype, nominal and with the injected fault.

import (
	"fmt"
	"testing"

	"air/internal/archive"
	"air/internal/core"
	"air/internal/ipc"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/multicore"
	"air/internal/pal"
	"air/internal/pmk"
	"air/internal/pos"
	"air/internal/sched"
	"air/internal/tick"
	"air/internal/timeline"
	"air/internal/workload"
)

// --- F1: Partition Scheduler (Algorithm 1) ----------------------------------

// newScheduler builds a scheduler over schedules with the given number of
// one-tick windows per MTF.
func newBenchScheduler(b *testing.B, mtf tick.Ticks, windows []model.Window, reqs []model.Requirement) *pmk.Scheduler {
	b.Helper()
	sys := &model.System{
		Partitions: []model.PartitionName{"A", "B"},
		Schedules: []model.Schedule{
			{Name: "s0", MTF: mtf, Requirements: reqs, Windows: windows},
			{Name: "s1", MTF: mtf, Requirements: reqs, Windows: windows},
		},
	}
	var compiled []*pmk.CompiledSchedule
	for i := range sys.Schedules {
		cs, err := pmk.Compile(sys, &sys.Schedules[i])
		if err != nil {
			b.Fatal(err)
		}
		compiled = append(compiled, cs)
	}
	s, err := pmk.NewScheduler(compiled)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkPartitionSchedulerBestCase measures Algorithm 1's frequent path:
// the preemption-point test fails and only two computations are performed
// (one window per 2^20-tick MTF → points are negligible).
func BenchmarkPartitionSchedulerBestCase(b *testing.B) {
	const mtf = 1 << 20
	s := newBenchScheduler(b, mtf,
		[]model.Window{{Partition: "A", Offset: 0, Duration: mtf}},
		[]model.Requirement{
			{Partition: "A", Cycle: mtf, Budget: mtf},
			{Partition: "B", Cycle: mtf, Budget: 0},
		})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}

// BenchmarkPartitionSchedulerPreemptionPoint measures the heir-selection
// path: every tick is a partition preemption point (two 1-tick windows).
func BenchmarkPartitionSchedulerPreemptionPoint(b *testing.B) {
	s := newBenchScheduler(b, 2,
		[]model.Window{
			{Partition: "A", Offset: 0, Duration: 1},
			{Partition: "B", Offset: 1, Duration: 1},
		},
		[]model.Requirement{
			{Partition: "A", Cycle: 2, Budget: 1},
			{Partition: "B", Cycle: 2, Budget: 1},
		})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}

// BenchmarkPartitionSchedulerScheduleSwitch measures the rare worst path:
// an effective schedule switch at every MTF boundary (MTF = 2, a pending
// switch re-armed each frame).
func BenchmarkPartitionSchedulerScheduleSwitch(b *testing.B) {
	s := newBenchScheduler(b, 2,
		[]model.Window{
			{Partition: "A", Offset: 0, Duration: 1},
			{Partition: "B", Offset: 1, Duration: 1},
		},
		[]model.Requirement{
			{Partition: "A", Cycle: 2, Budget: 1},
			{Partition: "B", Cycle: 2, Budget: 1},
		})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RequestSwitch(model.ScheduleID(i % 2)); err != nil {
			b.Fatal(err)
		}
		s.Tick()
	}
}

// BenchmarkPartitionSchedulerFig8 measures the amortized per-tick cost over
// the paper's actual prototype tables (7 points per 1300 ticks).
func BenchmarkPartitionSchedulerFig8(b *testing.B) {
	sys := model.Fig8System()
	var compiled []*pmk.CompiledSchedule
	for i := range sys.Schedules {
		cs, err := pmk.Compile(sys, &sys.Schedules[i])
		if err != nil {
			b.Fatal(err)
		}
		compiled = append(compiled, cs)
	}
	s, err := pmk.NewScheduler(compiled)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}

// --- F2: Partition Dispatcher (Algorithm 2) ----------------------------------

// BenchmarkDispatcherSamePartition measures the Algorithm 2 line-1 fast
// path (heir == active → elapsedTicks = 1).
func BenchmarkDispatcherSamePartition(b *testing.B) {
	const mtf = 1 << 20
	s := newBenchScheduler(b, mtf,
		[]model.Window{{Partition: "A", Offset: 0, Duration: mtf}},
		[]model.Requirement{
			{Partition: "A", Cycle: mtf, Budget: mtf},
			{Partition: "B", Cycle: mtf, Budget: 0},
		})
	d := pmk.NewDispatcher(s, pmk.Hooks{})
	heir := s.Heir()
	d.Dispatch(heir, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Dispatch(heir, tick.Ticks(i))
	}
}

// BenchmarkDispatcherContextSwitch measures the full context-switch path:
// save, elapsed-tick computation, restore, pending-action check.
func BenchmarkDispatcherContextSwitch(b *testing.B) {
	s := newBenchScheduler(b, 2,
		[]model.Window{
			{Partition: "A", Offset: 0, Duration: 1},
			{Partition: "B", Offset: 1, Duration: 1},
		},
		[]model.Requirement{
			{Partition: "A", Cycle: 2, Budget: 1},
			{Partition: "B", Cycle: 2, Budget: 1},
		})
	d := pmk.NewDispatcher(s, pmk.Hooks{
		SaveContext:                 func(model.PartitionName) {},
		RestoreContext:              func(model.PartitionName) {},
		PendingScheduleChangeAction: func(model.PartitionName) {},
	})
	a := pmk.Heir{Partition: "A"}
	bb := pmk.Heir{Partition: "B"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heir := a
		if i%2 == 1 {
			heir = bb
		}
		d.Dispatch(heir, tick.Ticks(i))
	}
}

// --- F3/F4: deadline queue ablation (Sect. 5.3) -------------------------------

var queueSizes = []int{4, 16, 64, 256, 1024}

func fillQueue(q pal.DeadlineQueue, n int) {
	for i := 0; i < n; i++ {
		// Deterministic pseudo-random deadlines.
		q.Register(pal.Entry{
			PID:      pos.ProcessID(i + 1),
			Deadline: tick.Ticks((i*2654435761 + 12345) % 1_000_000),
		})
	}
}

func benchEarliest(b *testing.B, mk func() pal.DeadlineQueue) {
	for _, n := range queueSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := mk()
			fillQueue(q, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := q.Earliest(); !ok {
					b.Fatal("empty queue")
				}
			}
		})
	}
}

// BenchmarkDeadlineEarliestList: the paper's O(1) claim — flat across n.
func BenchmarkDeadlineEarliestList(b *testing.B) {
	benchEarliest(b, func() pal.DeadlineQueue { return pal.NewListQueue() })
}

// BenchmarkDeadlineEarliestTree: the alternative's O(log n) leftmost walk.
func BenchmarkDeadlineEarliestTree(b *testing.B) {
	benchEarliest(b, func() pal.DeadlineQueue { return pal.NewTreeQueue() })
}

func benchRegister(b *testing.B, mk func() pal.DeadlineQueue) {
	for _, n := range queueSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := mk()
			fillQueue(q, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Update a rotating process with a moving deadline: the
				// REPLENISH-style register/update path.
				q.Register(pal.Entry{
					PID:      pos.ProcessID(i%n + 1),
					Deadline: tick.Ticks((i * 48271) % 1_000_000),
				})
			}
		})
	}
}

// BenchmarkDeadlineRegisterList: O(n) ordered insertion.
func BenchmarkDeadlineRegisterList(b *testing.B) {
	benchRegister(b, func() pal.DeadlineQueue { return pal.NewListQueue() })
}

// BenchmarkDeadlineRegisterTree: O(log n) insertion — the tree's win side.
func BenchmarkDeadlineRegisterTree(b *testing.B) {
	benchRegister(b, func() pal.DeadlineQueue { return pal.NewTreeQueue() })
}

func benchTickAnnounce(b *testing.B, useTree bool) {
	for _, n := range queueSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var now tick.Ticks
			nowFn := func() tick.Ticks { return now }
			var q pal.DeadlineQueue = pal.NewListQueue()
			if useTree {
				q = pal.NewTreeQueue()
			}
			p := pal.New(pal.Config{Partition: "P", Queue: q, Now: nowFn})
			k := pos.NewKernel(pos.Options{Partition: "P", Now: nowFn, Observer: p})
			p.Bind(k)
			fillQueue(q, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++ // deadlines are far in the future: no violations
				p.TickAnnounce(1)
			}
		})
	}
}

// BenchmarkTickAnnounceList: Algorithm 3 cost inside the clock tick path,
// list-backed — the configuration the paper ships.
func BenchmarkTickAnnounceList(b *testing.B) { benchTickAnnounce(b, false) }

// BenchmarkTickAnnounceTree: same with the tree queue.
func BenchmarkTickAnnounceTree(b *testing.B) { benchTickAnnounce(b, true) }

// BenchmarkDeadlineDetectAndRemove measures the violation path: detect the
// earliest expired deadline, report (no HM attached) and remove — O(1) on
// the list per the paper's argument.
func BenchmarkDeadlineDetectAndRemove(b *testing.B) {
	q := pal.NewListQueue()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillQueue(q, 64)
		b.StartTimer()
		// One expired entry at the head.
		q.Register(pal.Entry{PID: 999, Deadline: 0})
		if e, ok := q.Earliest(); !ok || e.PID != 999 {
			b.Fatal("head wrong")
		}
		q.RemoveEarliest()
		b.StopTimer()
		for _, e := range q.Entries() {
			q.Unregister(e.PID)
		}
		b.StartTimer()
	}
}

// --- H: kernel↔process handoff ----------------------------------------------

// benchProcessHandoff ticks a one-partition module whose only process never
// blocks: a goroutine computing forever when body is non-nil, so every Step
// is exactly one grant→yield round trip, or a model-only process (nil body)
// that consumes each tick with no goroutine.
func benchProcessHandoff(b *testing.B, body core.ProcessBody) {
	const mtf = 1 << 20
	m, err := core.NewModule(core.Config{
		System: &model.System{
			Partitions: []model.PartitionName{"A"},
			Schedules: []model.Schedule{{
				Name: "main", MTF: mtf,
				Requirements: []model.Requirement{{Partition: "A", Cycle: mtf, Budget: mtf}},
				Windows:      []model.Window{{Partition: "A", Offset: 0, Duration: mtf}},
			}},
		},
		TraceCapacity: -1,
		Partitions: []core.PartitionConfig{{Name: "A", Init: func(sv *core.Services) {
			sv.CreateProcess(model.TaskSpec{Name: "spin", Deadline: tick.Infinity,
				BasePriority: 1, WCET: 1}, body)
			sv.StartProcess("spin")
			sv.SetPartitionMode(model.ModeNormal)
		}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessHandoff: the per-tick cost of granting a tick to a
// process goroutine. The goroutine sub-benchmark minus the model-only one
// is the handoff; run it at -cpu 1,2, since the round trip costs more when
// the two goroutines can land on different Ps.
func BenchmarkProcessHandoff(b *testing.B) {
	b.Run("goroutine", func(b *testing.B) {
		benchProcessHandoff(b, func(sv *core.Services) {
			for {
				// Compute yields once per granted tick, so any chunk
				// size gives one handoff per Step.
				sv.Compute(1000)
			}
		})
	})
	b.Run("model-only", func(b *testing.B) { benchProcessHandoff(b, nil) })
}

// --- F6: interpartition communication ----------------------------------------

func benchSampling(b *testing.B, latency tick.Ticks, size int) {
	r := ipc.NewRouter()
	ch, err := r.AddSampling(ipc.SamplingConfig{
		Name: "bench", MaxMessage: size, Refresh: 0, Latency: latency,
		Source:       ipc.PortRef{Partition: "A", Port: "o"},
		Destinations: []ipc.PortRef{{Partition: "B", Port: "i"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := tick.Ticks(i)
		if err := ch.Write("A", payload, now); err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Read("B", now+latency); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingPortLocal: memory-to-memory write+read, 64-byte message.
func BenchmarkSamplingPortLocal(b *testing.B) { benchSampling(b, 0, 64) }

// BenchmarkSamplingPortLocal1K: 1 KiB message.
func BenchmarkSamplingPortLocal1K(b *testing.B) { benchSampling(b, 0, 1024) }

// BenchmarkSamplingPortRemote: via the simulated bus (latency accounting).
func BenchmarkSamplingPortRemote(b *testing.B) { benchSampling(b, 25, 64) }

func benchQueuing(b *testing.B, latency tick.Ticks) {
	r := ipc.NewRouter()
	ch, err := r.AddQueuing(ipc.QueuingConfig{
		Name: "bench", MaxMessage: 64, Depth: 16, Latency: latency,
		Source:      ipc.PortRef{Partition: "A", Port: "o"},
		Destination: ipc.PortRef{Partition: "B", Port: "i"},
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := tick.Ticks(i)
		if err := ch.Send("A", payload, now); err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Receive("B", now+latency); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueuingPortLocal: send+receive on a local queuing channel.
func BenchmarkQueuingPortLocal(b *testing.B) { benchQueuing(b, 0) }

// BenchmarkQueuingPortRemote: send+receive through the simulated bus.
func BenchmarkQueuingPortRemote(b *testing.B) { benchQueuing(b, 25) }

// BenchmarkMMUCopy: the PMK-mediated interpartition memory-to-memory copy
// with both sides' spatial checks (Sect. 2.1).
func BenchmarkMMUCopy(b *testing.B) {
	m := mmu.New(1 << 20)
	for _, p := range []model.PartitionName{"A", "B"} {
		if err := m.MapSpace(mmu.SpaceSpec{Partition: p, Descriptors: []mmu.Descriptor{
			{Section: mmu.SectionData, Base: 0, Size: 16 * mmu.PageSize,
				AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
		}}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Copy("A", 0x100, mmu.PrivPOS, "B", 0x100, mmu.PrivPOS, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F7: spatial partitioning --------------------------------------------------

// BenchmarkMMUTranslateWalk: the 3-level page table walk with permission
// check. Consecutive accesses alternate between two pages that collide in
// the same direct-mapped TLB slot, so every access misses and walks.
func BenchmarkMMUTranslateWalk(b *testing.B) {
	m := mmu.New(1 << 20)
	if err := m.MapSpace(mmu.SpaceSpec{Partition: "A", Descriptors: []mmu.Descriptor{
		{Section: mmu.SectionData, Base: 0, Size: 64 * mmu.PageSize,
			AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
	}}); err != nil {
		b.Fatal(err)
	}
	if err := m.SetContext("A"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pages 0 and 32 share TLB slot 0 (32-entry direct-mapped TLB).
		va := mmu.VirtAddr((i % 2) * 32 * mmu.PageSize)
		if _, err := m.Translate(va, mmu.Read, mmu.PrivApp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMUTranslateTLBHit: repeated accesses within one page — the TLB
// fast path that skips the three-level walk.
func BenchmarkMMUTranslateTLBHit(b *testing.B) {
	m := mmu.New(1 << 20)
	if err := m.MapSpace(mmu.SpaceSpec{Partition: "A", Descriptors: []mmu.Descriptor{
		{Section: mmu.SectionData, Base: 0, Size: 64 * mmu.PageSize,
			AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
	}}); err != nil {
		b.Fatal(err)
	}
	if err := m.SetContext("A"); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Translate(0x100, mmu.Read, mmu.PrivApp); err != nil {
		b.Fatal(err) // prime the TLB
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Translate(0x100+mmu.VirtAddr(i%256), mmu.Read, mmu.PrivApp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMUTranslateFault: the fault path (unmapped address).
func BenchmarkMMUTranslateFault(b *testing.B) {
	m := mmu.New(1 << 20)
	if err := m.MapSpace(mmu.SpaceSpec{Partition: "A", Descriptors: []mmu.Descriptor{
		{Section: mmu.SectionData, Base: 0, Size: mmu.PageSize,
			AppPerms: mmu.Read, POSPerms: mmu.Read},
	}}); err != nil {
		b.Fatal(err)
	}
	if err := m.SetContext("A"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Translate(0x0800_0000, mmu.Read, mmu.PrivApp); err == nil {
			b.Fatal("expected fault")
		}
	}
}

// --- F8: offline tooling ---------------------------------------------------------

// BenchmarkPSTSynthesis: EDF-based generation of a Fig. 8-scale table.
func BenchmarkPSTSynthesis(b *testing.B) {
	reqs := []model.Requirement{
		{Partition: "P1", Cycle: 1300, Budget: 200},
		{Partition: "P2", Cycle: 650, Budget: 100},
		{Partition: "P3", Cycle: 650, Budget: 100},
		{Partition: "P4", Cycle: 1300, Budget: 100},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Synthesize("bench", reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulability: two-level response-time analysis of a partition
// task set against the Fig. 8 supply.
func BenchmarkSchedulability(b *testing.B) {
	sys := model.Fig8System()
	ts := model.TaskSet{Partition: "P4", Tasks: []model.TaskSpec{
		{Name: "a", Period: 1300, Deadline: 1300, BasePriority: 1, WCET: 200, Periodic: true},
		{Name: "b", Period: 1300, Deadline: 1300, BasePriority: 5, WCET: 100, Periodic: true},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.AnalyzePartition(&sys.Schedules[0], ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelVerify: eqs. (21)–(23) verification of the Fig. 8 system.
func BenchmarkModelVerify(b *testing.B) {
	sys := model.Fig8System()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := model.Verify(sys); !r.OK() {
			b.Fatal("must verify")
		}
	}
}

// --- E*: full module --------------------------------------------------------------

func benchModuleTick(b *testing.B, opts workload.Options) {
	m, err := core.NewModule(workload.Config(opts))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModuleTickSatellite: one full system tick of the Sect. 6
// prototype — Algorithm 1 + Algorithm 2 + Algorithm 3 + process scheduling
// and one granted process tick.
func BenchmarkModuleTickSatellite(b *testing.B) {
	benchModuleTick(b, workload.Options{TraceCapacity: -1})
}

// BenchmarkModuleTickSatelliteFaulty: same with the injected fault (adds
// detection, HM reporting and restart along the run).
func BenchmarkModuleTickSatelliteFaulty(b *testing.B) {
	benchModuleTick(b, workload.Options{TraceCapacity: -1, Faults: []workload.FaultSpec{{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}})
}

// BenchmarkModuleTickSatelliteTimeline: the nominal tick with the online
// timeliness analyzer subscribed to the spine — the full observability tax
// (metrics registry + trace ring + histograms, budget accounting, watermark
// checks, flight recorder). Must stay allocation-free in steady state.
func BenchmarkModuleTickSatelliteTimeline(b *testing.B) {
	m, err := core.NewModule(workload.Config(workload.Options{TraceCapacity: -1}))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown()
	timeline.Attach(m.Bus(), timeline.Options{System: model.Fig8System()})
	if err := m.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModuleTickArchiveSink: the nominal tick with the bitemporal
// flight archive subscribed to the spine — framing, CRC and the sparse tick
// index on the write path. Must stay allocation-free in steady state: the
// sink appends into a preallocated staging buffer and defers sealing work
// off the hot path.
func BenchmarkModuleTickArchiveSink(b *testing.B) {
	m, err := core.NewModule(workload.Config(workload.Options{TraceCapacity: -1}))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown()
	sink, err := archive.Open(b.TempDir(), archive.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	m.Bus().Attach(sink)
	if err := m.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulticoreTick: one global tick of a dual-core module (two full
// single-core tick pipelines in lockstep) — the Sect. 8 (iv) extension.
func BenchmarkMulticoreTick(b *testing.B) {
	mkCore := func(p model.PartitionName) core.Config {
		return core.Config{
			System: &model.System{
				Partitions: []model.PartitionName{p},
				Schedules: []model.Schedule{{
					Name: "main", MTF: 100,
					Requirements: []model.Requirement{{Partition: p, Cycle: 100, Budget: 100}},
					Windows:      []model.Window{{Partition: p, Offset: 0, Duration: 100}},
				}},
			},
			TraceCapacity: -1,
			Partitions: []core.PartitionConfig{{Name: p, Init: func(sv *core.Services) {
				sv.CreateProcess(model.TaskSpec{
					Name: "w", Period: 100, Deadline: 100, BasePriority: 1,
					WCET: 50, Periodic: true,
				}, func(sv *core.Services) {
					for {
						sv.Compute(50)
						sv.PeriodicWait()
					}
				})
				sv.StartProcess("w")
				sv.SetPartitionMode(model.ModeNormal)
			}}},
		}
	}
	m, err := multicore.NewModule(multicore.Config{
		Cores: []core.Config{mkCore("A"), mkCore("B")},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
