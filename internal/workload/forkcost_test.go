package workload

import (
	"testing"

	"air/internal/core"
)

// forkParent builds a satellite module ticked to the first quiescent point
// and snapshots it, the shared fixture for the fork-cost benchmarks.
func forkParent(b *testing.B) *core.Snapshot {
	b.Helper()
	m, err := core.NewModule(Config(Options{}))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Shutdown)
	if err := m.Start(); err != nil {
		b.Fatal(err)
	}
	if err := m.Run(forkMTF - 1); err != nil {
		b.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkModuleFork isolates Fork() itself: the copy of every subsystem
// (the MMU's frame table, whose frames are shared copy-on-write, page
// tables, kernels, IPC channels, HM state, and the default trace ring,
// whose clone copies only the events it holds) plus re-spawning the
// process goroutines. This is the constant a campaign pays per
// prefix-shared variant, so it bounds how short a per-run suffix can get
// before forking stops paying.
func BenchmarkModuleFork(b *testing.B) {
	snap := forkParent(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := snap.Fork()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		f.Shutdown()
		b.StartTimer()
	}
}

// BenchmarkModuleBuild is what a from-zero campaign run pays around its
// ticks: NewModule + Start + Shutdown of the campaign-shaped module (no
// retained trace, batched observability).
func BenchmarkModuleBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config(Options{TraceCapacity: -1})
		cfg.BatchObs = true
		m, err := core.NewModule(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Start(); err != nil {
			b.Fatal(err)
		}
		m.Shutdown()
	}
}

// BenchmarkModuleBuildDefault is what airsim, airmon and the air facade pay
// to bring a module up and down: NewModule + Start + Shutdown of the
// satellite module at the default trace capacity, without batching.
func BenchmarkModuleBuildDefault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := core.NewModule(Config(Options{}))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Start(); err != nil {
			b.Fatal(err)
		}
		m.Shutdown()
	}
}

// TestModuleBuildAndForkAllocBound bounds the bytes a module build and a
// fork allocate. Simulated RAM that nothing writes must cost frame-table
// entries, not zeroed or copied frames: the Fig. 8 module maps 384 pages
// (1.5 MiB). The trace ring must cost the events it holds, not its
// 4096-event (512 KiB) bound: a default-trace build and a fork of a
// default-trace module each allocated about 0.57 MB while the ring was
// allocated whole, and under 0.1 MB since it grows on demand. Either cost
// above 256 KiB means frames or trace capacity are being allocated eagerly
// again.
func TestModuleBuildAndForkAllocBound(t *testing.T) {
	const bound = 256 << 10
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"build", BenchmarkModuleBuild},
		{"default-trace build", BenchmarkModuleBuildDefault},
		{"fork", BenchmarkModuleFork},
	} {
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			t.Fatalf("%s benchmark failed", bm.name)
		}
		if got := r.AllocedBytesPerOp(); got > bound {
			t.Errorf("%s allocates %d B/op, want at most %d", bm.name, got, bound)
		}
	}
}

// BenchmarkModuleForkRun compares fork-then-simulate against the ticking
// itself: one fork plus a 3-MTF suffix, the shape of a prefix-shared
// campaign run.
func BenchmarkModuleForkRun(b *testing.B) {
	snap := forkParent(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := snap.Fork()
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Run(3 * forkMTF); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		f.Shutdown()
		b.StartTimer()
	}
}
