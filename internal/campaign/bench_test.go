package campaign

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkCampaignThroughput measures aggregate simulation throughput
// (module ticks per wall-clock second) of a mixed-fault campaign at several
// worker-pool sizes. Runs are independent single-threaded simulations, so
// throughput should scale with workers up to the core count; results stay
// byte-identical regardless (see TestCampaignDeterminism).
func BenchmarkCampaignThroughput(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var ticks int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(Spec{Runs: 8, Workers: workers, Seed: 17, MTFs: 3})
				if err != nil {
					b.Fatal(err)
				}
				ticks += res.Aggregate.Ticks
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "ticks/s")
			}
		})
	}
}

// foldSink keeps BenchmarkFold's result live.
var foldSink Aggregate

// BenchmarkFold measures folding a campaign's observations into its
// aggregate: the 256 observations of a seed-1, 20-MTF fork-prefix campaign,
// the shape of the campaign-fork benchmark workload.
func BenchmarkFold(b *testing.B) {
	res, err := Run(Spec{Runs: 256, Workers: 2, Seed: 1, MTFs: 20, ForkPrefix: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foldSink = Fold(res.Observations)
	}
}

// BenchmarkCampaignForkThroughput measures prefix-sharing against from-zero
// execution: the identical campaign (16 runs of 24 MTFs, faults activating
// after frame 21) run with and without ForkPrefix. The fork variant
// simulates the 21-frame fault-free warm-up once and forks each run's
// variant from the snapshot, replacing 16×24 = 384 simulated frames with
// 21 + 16×3 = 69, an ideal 5.6× per-worker speedup; the CI gate requires
// ≥3×. One worker, because the comparison is simulation work avoided per
// worker — the prefix is sequential, so at worker counts approaching the
// run count from-zero parallelism hides exactly the work fork sharing
// skips.
func BenchmarkCampaignForkThroughput(b *testing.B) {
	spec := Spec{Runs: 16, Workers: 1, Seed: 17, MTFs: 24, PrefixMTFs: 21}
	for _, mode := range []struct {
		name string
		fork bool
	}{{"from-zero", false}, {"fork-prefix", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := spec
			s.ForkPrefix = mode.fork
			var logical int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(s)
				if err != nil {
					b.Fatal(err)
				}
				// Logical ticks: the simulated history every run's results
				// cover, prefix included — the work prefix sharing avoids
				// re-simulating, which is exactly what the speedup claims.
				logical += int64(res.Runs) * int64(res.MTFs) * 1300
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(logical)/b.Elapsed().Seconds(), "ticks/s")
			}
		})
	}
}
