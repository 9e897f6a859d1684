package workload

import (
	"runtime"
	"testing"
	"time"

	"air/internal/core"
	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
)

// TestSoakSatelliteAndGoroutineHygiene runs the full prototype for 100
// MTFs with the fault injected, checks global invariants, and verifies the
// strict-alternation machinery leaks no goroutines after Shutdown — every
// process goroutine must be reaped.
func TestSoakSatelliteAndGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()

	m, err := core.NewModule(Config(Options{Faults: []FaultSpec{{Kind: FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	const mtfs = 100
	if err := m.Run(mtfs * 1300); err != nil {
		t.Fatal(err)
	}

	// Invariants over the long run.
	misses := m.TraceKind(obs.KindDeadlineMiss)
	if len(misses) != mtfs {
		t.Errorf("misses = %d over %d MTFs, want one per dispatch", len(misses), mtfs)
	}
	if got := m.Health().Count(hm.ErrDeadlineMissed); got != len(misses) {
		t.Errorf("HM count %d != trace %d", got, len(misses))
	}
	if got := len(m.TraceKind(obs.KindProcessRestarted)); got != mtfs {
		t.Errorf("restarts = %d", got)
	}
	// Every non-faulty partition stayed clean.
	for _, p := range []string{"P2", "P3", "P4"} {
		if evs := m.Health().EventsFor(model.PartitionName(p)); len(evs) != 0 {
			t.Errorf("%s accumulated HM events: %d", p, len(evs))
		}
	}

	m.Shutdown()
	// Give the runtime a beat to finish unwinding reaped goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	after := runtime.NumGoroutine()
	if after > before {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
			before, after, buf[:n])
	}
}
