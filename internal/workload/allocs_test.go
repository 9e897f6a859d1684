package workload

import "testing"

// TestAllocsPerMTF bounds the allocations of one warm Fig. 8 major time
// frame. The tick benchmarks report allocs/op per tick, truncated, so they
// read 0 for anything under 1,300 allocations per 1,300-tick MTF; this test
// counts the whole frame. The bounds are the module's current counts, so
// one more allocation anywhere in the steady-state tick path fails it.
// The race detector allocates on its own account, so it is skipped there.
func TestAllocsPerMTF(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, tc := range []struct {
		name string
		opts Options
		max  float64
	}{
		{"nominal", Options{}, 18},
		{"sect6_fault", Options{Faults: []FaultSpec{{Kind: FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}}, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := startSatellite(t, tc.opts)
			if err := m.Run(2 * forkMTF); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(5, func() {
				if err := m.Run(forkMTF); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.max {
				t.Errorf("%v allocations per MTF, want at most %v", got, tc.max)
			}
		})
	}
}
