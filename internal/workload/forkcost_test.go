package workload

import (
	"runtime"
	"testing"

	"air/internal/core"
)

// forkParent builds a satellite module ticked to the first quiescent point
// and snapshots it, the shared fixture for the fork-cost benchmarks.
func forkParent(tb testing.TB) *core.Snapshot {
	tb.Helper()
	m, err := core.NewModule(Config(Options{}))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(m.Shutdown)
	if err := m.Start(); err != nil {
		tb.Fatal(err)
	}
	if err := m.Run(forkMTF - 1); err != nil {
		tb.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		tb.Fatal(err)
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

// campaignModule is the campaign-shaped module configuration: no retained
// trace, batched observability.
func campaignModule() core.Config {
	cfg := Config(Options{TraceCapacity: -1})
	cfg.BatchObs = true
	return cfg
}

// cycleModule builds, starts and shuts down one module of the given
// configuration.
func cycleModule(tb testing.TB, cfg core.Config) {
	m, err := core.NewModule(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Start(); err != nil {
		tb.Fatal(err)
	}
	m.Shutdown()
}

// BenchmarkModuleBuild is what a from-zero campaign run pays around its
// ticks: NewModule + Start + Shutdown of the campaign-shaped module.
func BenchmarkModuleBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cycleModule(b, campaignModule())
	}
}

// BenchmarkModuleBuildDefault is what airsim, airmon and the air facade pay
// to bring a module up and down: NewModule + Start + Shutdown of the
// satellite module at the default trace capacity, without batching.
func BenchmarkModuleBuildDefault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cycleModule(b, Config(Options{}))
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
// again. Each case counts a module's whole life around its ticks, Shutdown
// included.
func TestModuleBuildAndForkAllocBound(t *testing.T) {
	const bound = 256 << 10
	snap := forkParent(t)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"build", func() { cycleModule(t, campaignModule()) }},
		{"default-trace build", func() { cycleModule(t, Config(Options{})) }},
		{"fork", func() {
			f, err := snap.Fork()
			if err != nil {
				t.Fatal(err)
			}
			f.Shutdown()
		}},
	} {
		if got := allocBytes(c.fn); got > bound {
			t.Errorf("%s allocates %d B/op, want at most %d", c.name, got, bound)
		}
	}
}

// allocBytes returns the bytes f allocates per call, averaged over 50 calls
// after a warm-up call.
func allocBytes(f func()) uint64 {
	const runs = 50
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
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
