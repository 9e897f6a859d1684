package core

import (
	"runtime"
	"testing"
	"time"

	"air/internal/model"
	"air/internal/pos"
	"air/internal/tick"
)

// reapModule builds and starts a one-partition module holding a process in
// every state a kill must reap, then runs it 150 ticks:
//
//   - never: DELAYED_START far in the future, so its goroutine is parked at
//     the body entry and has never been granted;
//   - periodic: blocked in PERIODIC_WAIT;
//   - worker and hog (when withBusy, which makes the module unforkable):
//     worker preempted mid-Compute by hog, which is released at tick 140
//     and computing when the run ends;
//   - stopper: stopped itself with STOP_SELF (no goroutine left);
//   - crasher: panicked, stopped by the Health Monitor (no goroutine left).
//
// Init creates and starts the processes on the first start only, so a cold
// restart leaves the partition with no goroutine at all.
func reapModule(t *testing.T, withBusy bool) (*Module, *Partition) {
	t.Helper()
	forkable := func(run func(sv *Services)) ForkableBody {
		return ForkableBody{
			New:   func() any { return nil },
			Clone: func(any) any { return nil },
			Run:   func(sv *Services, _ any) { run(sv) },
		}
	}
	starts := 0
	init := normalInit(func(sv *Services) {
		if starts++; starts > 1 {
			return
		}
		sv.CreateForkableProcess(periodicTask("never", 100, 1), forkable(func(sv *Services) {
			for {
				sv.PeriodicWait()
			}
		}))
		sv.CreateForkableProcess(periodicTask("periodic", 100, 1), forkable(func(sv *Services) {
			for {
				sv.Compute(1)
				sv.PeriodicWait()
			}
		}))
		sv.CreateForkableProcess(aperiodicTask("stopper", 2), forkable(func(sv *Services) {
			sv.Compute(1)
			sv.StopSelf()
		}))
		sv.CreateForkableProcess(aperiodicTask("crasher", 3), forkable(func(sv *Services) {
			sv.Compute(1)
			panic("reap test fault")
		}))
		sv.DelayedStartProcess("never", 1<<20)
		for _, name := range []string{"periodic", "stopper", "crasher"} {
			sv.StartProcess(name)
		}
		if withBusy {
			spin := forkable(func(sv *Services) {
				for {
					sv.Compute(1000)
				}
			})
			sv.CreateForkableProcess(aperiodicTask("worker", 9), spin)
			sv.CreateForkableProcess(aperiodicTask("hog", 1), spin)
			sv.StartProcess("worker")
			sv.DelayedStartProcess("hog", 140)
		}
	})
	sys := &model.System{
		Partitions: []model.PartitionName{"A"},
		Schedules: []model.Schedule{{
			Name: "main", MTF: 100,
			Requirements: []model.Requirement{{Partition: "A", Cycle: 100, Budget: 100}},
			Windows:      []model.Window{{Partition: "A", Offset: 0, Duration: 100}},
		}},
	}
	m := startModule(t, Config{System: sys, TraceCapacity: -1,
		Partitions: []PartitionConfig{{Name: "A", Init: init}}})
	if err := m.Run(150); err != nil {
		t.Fatal(err)
	}
	pt, err := m.Partition("A")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		state model.ProcessState
		wait  pos.WaitKind
		live  bool
	}{
		"never":    {model.StateWaiting, pos.WaitDelay, true},
		"periodic": {model.StateWaiting, pos.WaitPeriod, true},
		"stopper":  {model.StateDormant, pos.WaitNone, false},
		"crasher":  {model.StateDormant, pos.WaitNone, false},
		"worker":   {model.StateReady, pos.WaitNone, true},
		"hog":      {model.StateRunning, pos.WaitNone, true},
	}
	for _, p := range pt.kernel.Processes() {
		w := want[p.Spec.Name]
		rt := pt.runtime(p.ID)
		if p.State != w.state || p.WaitingOn != w.wait || (rt != nil && rt.alive) != w.live {
			t.Fatalf("%s: state %s waiting on %s live %v, want %s on %s live %v", p.Spec.Name,
				p.State, p.WaitingOn, rt != nil && rt.alive, w.state, w.wait, w.live)
		}
		if p.Spec.Name == "never" && rt.everGranted {
			t.Fatal("never: granted a tick")
		}
	}
	return m, pt
}

// quietGoroutines returns the goroutine count once it holds still, so a
// baseline leaves out goroutines that earlier tests' kills are still
// unwinding.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// settleGoroutines waits for goroutines that closed their done channel to
// finish exiting, then fails unless the count is back to want.
func settleGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != want {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("%s: %d goroutines, want %d\n%s", what, got, want, buf[:n])
	}
}

// TestKillReapsEveryProcessState checks that a kill (a closed grant
// channel) ends every process goroutine whatever it was parked in — at its
// body entry, in PERIODIC_WAIT or mid-Compute — and that exited processes
// leave nothing behind, on each path that kills: Shutdown, a cold partition
// restart, and Shutdown of a discarded fork. A goroutine left parked would
// keep its module reachable.
func TestKillReapsEveryProcessState(t *testing.T) {
	t.Run("shutdown", func(t *testing.T) {
		baseline := quietGoroutines()
		m, _ := reapModule(t, true)
		settleGoroutines(t, "four live processes", baseline+4)
		m.Shutdown()
		settleGoroutines(t, "after Shutdown", baseline)
	})
	t.Run("cold-restart", func(t *testing.T) {
		baseline := quietGoroutines()
		_, pt := reapModule(t, true)
		pt.restart(model.ModeColdStart)
		settleGoroutines(t, "after a cold restart", baseline)
		if n := len(pt.kernel.Processes()); n != 0 || pt.mode != model.ModeNormal {
			t.Fatalf("restarted partition: %d processes in mode %s, want 0 in NORMAL", n, pt.mode)
		}
	})
	t.Run("discarded-fork", func(t *testing.T) {
		baseline := quietGoroutines()
		m, _ := reapModule(t, false)
		settleGoroutines(t, "parent's two live processes", baseline+2)
		fork, err := m.Fork()
		if err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, "fork re-spawned", baseline+4)
		// Let the fork's periodic process run again before discarding it.
		if err := fork.Run(tick.Ticks(100)); err != nil {
			t.Fatal(err)
		}
		fork.Shutdown()
		settleGoroutines(t, "after the fork's Shutdown", baseline+2)
		m.Shutdown()
		settleGoroutines(t, "after the parent's Shutdown", baseline)
	})
}
