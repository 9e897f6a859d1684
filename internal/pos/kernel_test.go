package pos

import (
	"errors"
	"testing"
	"testing/quick"

	"air/internal/model"
	"air/internal/tick"
)

type testClock struct{ now tick.Ticks }

func (c *testClock) fn() func() tick.Ticks { return func() tick.Ticks { return c.now } }

type recordingObserver struct {
	set     map[ProcessID]tick.Ticks
	cleared map[ProcessID]int
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{
		set:     make(map[ProcessID]tick.Ticks),
		cleared: make(map[ProcessID]int),
	}
}

func (o *recordingObserver) SetDeadline(id ProcessID, _ string, d tick.Ticks) { o.set[id] = d }
func (o *recordingObserver) ClearDeadline(id ProcessID)                       { o.cleared[id]++; delete(o.set, id) }

func newTestKernel(t *testing.T, clock *testClock) (*Kernel, *recordingObserver) {
	t.Helper()
	obs := newRecordingObserver()
	k := NewKernel(Options{
		Partition: "P1",
		Now:       clock.fn(),
		Observer:  obs,
	})
	return k, obs
}

func mustCreate(t *testing.T, k *Kernel, spec model.TaskSpec) ProcessID {
	t.Helper()
	id, err := k.Create(spec)
	if err != nil {
		t.Fatalf("Create(%s): %v", spec.Name, err)
	}
	return id
}

func periodicSpec(name string, period tick.Ticks, prio model.Priority) model.TaskSpec {
	return model.TaskSpec{
		Name: name, Period: period, Deadline: period,
		BasePriority: prio, WCET: 1, Periodic: true,
	}
}

func aperiodicSpec(name string, prio model.Priority) model.TaskSpec {
	return model.TaskSpec{
		Name: name, Deadline: tick.Infinity, BasePriority: prio, WCET: 1,
	}
}

func TestCreateAndLookup(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	id := mustCreate(t, k, periodicSpec("a", 100, 5))
	p, err := k.Get(id)
	if err != nil || p.Spec.Name != "a" {
		t.Fatalf("Get: %v %v", p, err)
	}
	if p.State != model.StateDormant {
		t.Errorf("new process state = %s, want dormant", p.State)
	}
	if _, err := k.Lookup("a"); err != nil {
		t.Errorf("Lookup(a): %v", err)
	}
	if _, err := k.Lookup("zz"); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("Lookup(zz) = %v", err)
	}
	if _, err := k.Get(99); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("Get(99) = %v", err)
	}
	if _, err := k.Create(periodicSpec("a", 50, 1)); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate create = %v", err)
	}
	if _, err := k.Create(model.TaskSpec{Name: "bad", Deadline: 0}); err == nil {
		t.Error("invalid spec accepted")
	}
	if got := len(k.Processes()); got != 1 {
		t.Errorf("Processes() len = %d", got)
	}
}

func TestProcessTableLimit(t *testing.T) {
	k := NewKernel(Options{Partition: "P", MaxProcesses: 1})
	mustCreate(t, k, aperiodicSpec("one", 1))
	if _, err := k.Create(aperiodicSpec("two", 1)); !errors.Is(err, ErrTooManyProcesses) {
		t.Errorf("overflow = %v", err)
	}
}

func TestStartSetsDeadlineAndRegisters(t *testing.T) {
	clock := &testClock{now: 100}
	k, obs := newTestKernel(t, clock)
	id := mustCreate(t, k, periodicSpec("a", 50, 5))
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.State != model.StateReady {
		t.Errorf("state = %s, want ready", p.State)
	}
	if !p.HasDeadline || p.Deadline != 150 {
		t.Errorf("deadline = %d (has=%v), want 150", p.Deadline, p.HasDeadline)
	}
	if obs.set[id] != 150 {
		t.Errorf("observer deadline = %d, want 150", obs.set[id])
	}
	// Starting a non-dormant process fails.
	if err := k.Start(id); !errors.Is(err, ErrNotDormant) {
		t.Errorf("double start = %v", err)
	}
}

func TestStartInfiniteDeadlineNotRegistered(t *testing.T) {
	clock := &testClock{}
	k, obs := newTestKernel(t, clock)
	id := mustCreate(t, k, aperiodicSpec("bg", 9))
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.HasDeadline {
		t.Error("infinite-deadline process must not carry a deadline")
	}
	if len(obs.set) != 0 {
		t.Error("observer must not receive a registration")
	}
}

func TestDelayedStart(t *testing.T) {
	clock := &testClock{now: 10}
	k, obs := newTestKernel(t, clock)
	id := mustCreate(t, k, periodicSpec("a", 100, 5))
	if err := k.DelayedStart(id, 40); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.State != model.StateWaiting || p.WaitingOn != WaitDelay || p.WakeAt != 50 {
		t.Fatalf("delayed start state: %s on %s at %d", p.State, p.WaitingOn, p.WakeAt)
	}
	// Deadline counts from release: now+delay+capacity = 10+40+100.
	if obs.set[id] != 150 {
		t.Errorf("deadline = %d, want 150", obs.set[id])
	}
	// Before expiry nothing wakes.
	clock.now = 49
	k.ClockAnnounce(49)
	if p.State != model.StateWaiting || p.WaitingOn != WaitDelay {
		t.Fatalf("woke early: %s on %s", p.State, p.WaitingOn)
	}
	clock.now = 50
	k.ClockAnnounce(50)
	if p.State != model.StateReady {
		t.Errorf("state after release = %s", p.State)
	}
	if err := k.DelayedStart(id, -1); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestStopClearsDeadline(t *testing.T) {
	clock := &testClock{}
	k, obs := newTestKernel(t, clock)
	id := mustCreate(t, k, periodicSpec("a", 100, 5))
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	k.Dispatch()
	if err := k.Stop(id); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.State != model.StateDormant || p.HasDeadline {
		t.Errorf("after stop: %s hasDeadline=%v", p.State, p.HasDeadline)
	}
	if obs.cleared[id] != 1 {
		t.Errorf("observer cleared %d times, want 1", obs.cleared[id])
	}
	if _, ok := k.Running(); ok {
		t.Error("stopped process still running")
	}
}

// TestHeirSelection exercises eq. (14): highest priority wins; equal
// priorities resolve by antiquity in the ready state.
func TestHeirSelection(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	low := mustCreate(t, k, periodicSpec("low", 100, 20))
	hi := mustCreate(t, k, periodicSpec("hi", 100, 1))
	mid1 := mustCreate(t, k, periodicSpec("mid1", 100, 10))
	mid2 := mustCreate(t, k, periodicSpec("mid2", 100, 10))

	if _, ok := k.Heir(); ok {
		t.Fatal("empty ready set should have no heir")
	}
	for _, id := range []ProcessID{low, mid1, mid2} {
		if err := k.Start(id); err != nil {
			t.Fatal(err)
		}
	}
	h, ok := k.Heir()
	if !ok || h.ID != mid1 {
		t.Fatalf("heir = %v, want mid1 (oldest of equal top priority)", h)
	}
	if err := k.Start(hi); err != nil {
		t.Fatal(err)
	}
	h, _ = k.Heir()
	if h.ID != hi {
		t.Fatalf("heir = %v, want hi", h)
	}
	// Stop hi: mid1 again (older than mid2).
	if err := k.Stop(hi); err != nil {
		t.Fatal(err)
	}
	h, _ = k.Heir()
	if h.ID != mid1 {
		t.Fatalf("heir = %v, want mid1", h)
	}
	_ = low
}

func TestPreemptionPreservesAntiquity(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	a := mustCreate(t, k, periodicSpec("a", 100, 10))
	b := mustCreate(t, k, periodicSpec("b", 100, 10))
	hi := mustCreate(t, k, periodicSpec("hi", 100, 1))
	if err := k.Start(a); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(b); err != nil {
		t.Fatal(err)
	}
	h, _ := k.Dispatch()
	if h.ID != a {
		t.Fatalf("dispatched %v, want a", h)
	}
	// hi preempts a.
	if err := k.Start(hi); err != nil {
		t.Fatal(err)
	}
	h, _ = k.Dispatch()
	if h.ID != hi {
		t.Fatalf("dispatched %v, want hi", h)
	}
	pa, _ := k.Get(a)
	if pa.State != model.StateReady {
		t.Fatalf("preempted a state = %s", pa.State)
	}
	// hi finishes; a must win over b (antiquity preserved across
	// preemption).
	if err := k.Stop(hi); err != nil {
		t.Fatal(err)
	}
	h, _ = k.Dispatch()
	if h.ID != a {
		t.Fatalf("dispatched %v, want a (antiquity)", h)
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	clock := &testClock{}
	k := NewKernel(Options{Partition: "LNX", Policy: PolicyRoundRobin, Now: clock.fn()})
	var ids []ProcessID
	for _, name := range []string{"a", "b", "c"} {
		id, err := k.Create(aperiodicSpec(name, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Start(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Rotation must visit all three in turn regardless of (equal or not)
	// priorities.
	var got []ProcessID
	for i := 0; i < 6; i++ {
		h, ok := k.Dispatch()
		if !ok {
			t.Fatal("no heir")
		}
		got = append(got, h.ID)
		// Mark it back to ready to simulate quantum expiry.
		h.State = model.StateReady
	}
	want := []ProcessID{ids[0], ids[1], ids[2], ids[0], ids[1], ids[2]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
	// With b blocked, rotation skips it.
	if err := k.Block(ids[1], WaitSemaphore, tick.Infinity); err != nil {
		t.Fatal(err)
	}
	seen := map[ProcessID]bool{}
	for i := 0; i < 4; i++ {
		h, ok := k.Dispatch()
		if !ok {
			t.Fatal("no heir")
		}
		seen[h.ID] = true
		h.State = model.StateReady
	}
	if seen[ids[1]] {
		t.Error("blocked process was dispatched")
	}
	if k.Policy() != PolicyRoundRobin {
		t.Error("Policy() wrong")
	}
}

func TestPeriodicWaitAndRelease(t *testing.T) {
	clock := &testClock{now: 0}
	k, obs := newTestKernel(t, clock)
	id := mustCreate(t, k, periodicSpec("a", 100, 5))
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	k.Dispatch()
	// Completes its job at t=30; waits for next release at 100.
	clock.now = 30
	if err := k.PeriodicWait(id); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.State != model.StateWaiting || p.WaitingOn != WaitPeriod || p.WakeAt != 100 {
		t.Fatalf("periodic wait: %s on %s at %d", p.State, p.WaitingOn, p.WakeAt)
	}
	// The next activation's deadline (release + capacity = 200) is
	// registered already at wait time, so the met deadline of the completed
	// activation can never fire.
	if p.Deadline != 200 || obs.set[id] != 200 {
		t.Errorf("deadline = %d (observer %d), want 200 at wait time", p.Deadline, obs.set[id])
	}
	clock.now = 100
	k.ClockAnnounce(100)
	if p.State != model.StateReady {
		t.Fatalf("state after release = %s", p.State)
	}
	if p.Deadline != 200 || obs.set[id] != 200 {
		t.Errorf("deadline = %d (observer %d), want 200", p.Deadline, obs.set[id])
	}
	// Overrun case: the process keeps computing past its period (release
	// point already passed). Wait at t=230 → next release 300, not 200.
	k.Dispatch()
	clock.now = 230
	if err := k.PeriodicWait(id); err != nil {
		t.Fatal(err)
	}
	if p.WakeAt != 300 {
		t.Errorf("overrun next release = %d, want 300", p.WakeAt)
	}
	// Non-periodic process cannot periodic-wait.
	bg := mustCreate(t, k, aperiodicSpec("bg", 9))
	if err := k.Start(bg); err != nil {
		t.Fatal(err)
	}
	if err := k.PeriodicWait(bg); !errors.Is(err, ErrNotPeriodic) {
		t.Errorf("aperiodic periodic-wait = %v", err)
	}
}

func TestBlockWakeAndTimeout(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	id := mustCreate(t, k, aperiodicSpec("a", 5))
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	// Wake path.
	if err := k.Block(id, WaitSemaphore, tick.Infinity); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.State != model.StateWaiting || p.WaitingOn != WaitSemaphore {
		t.Fatalf("blocked state: %s on %s", p.State, p.WaitingOn)
	}
	// Unbounded wait never times out.
	k.ClockAnnounce(1 << 40)
	if p.State != model.StateWaiting || p.TimedOut {
		t.Fatalf("unbounded wait woke by clock: %s timedOut=%v", p.State, p.TimedOut)
	}
	if err := k.Wake(id); err != nil {
		t.Fatal(err)
	}
	if p.State != model.StateReady || p.TimedOut {
		t.Fatalf("after wake: %s timedOut=%v", p.State, p.TimedOut)
	}
	// Timeout path.
	clock.now = 100
	if err := k.Block(id, WaitEvent, 150); err != nil {
		t.Fatal(err)
	}
	k.ClockAnnounce(150)
	if p.State != model.StateReady || !p.TimedOut {
		t.Fatalf("timeout: %s timedOut=%v", p.State, p.TimedOut)
	}
	// Waking a non-waiting process errors.
	if err := k.Wake(id); !errors.Is(err, ErrNotWaiting) {
		t.Errorf("Wake ready = %v", err)
	}
	// Blocking a dormant process errors.
	if err := k.Stop(id); err != nil {
		t.Fatal(err)
	}
	if err := k.Block(id, WaitEvent, tick.Infinity); err == nil {
		t.Error("blocked a dormant process")
	}
}

func TestSuspendResume(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	id := mustCreate(t, k, aperiodicSpec("a", 5))
	if err := k.Suspend(id); !errors.Is(err, ErrNotStarted) {
		t.Errorf("suspend dormant = %v", err)
	}
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	if err := k.Suspend(id); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.State != model.StateWaiting || p.WaitingOn != WaitSuspended {
		t.Fatalf("suspend state: %s on %s", p.State, p.WaitingOn)
	}
	if err := k.Suspend(id); !errors.Is(err, ErrAlreadySuspended) {
		t.Errorf("double suspend = %v", err)
	}
	if err := k.Resume(id); err != nil {
		t.Fatal(err)
	}
	if p.State != model.StateReady {
		t.Fatalf("after resume: %s", p.State)
	}
	if err := k.Resume(id); !errors.Is(err, ErrNotSuspended) {
		t.Errorf("double resume = %v", err)
	}
}

func TestSuspendOverlaysObjectWait(t *testing.T) {
	// A process suspended while waiting on a semaphore must not become
	// ready when the semaphore is signalled; only resume releases it.
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	id := mustCreate(t, k, aperiodicSpec("a", 5))
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	if err := k.Block(id, WaitSemaphore, tick.Infinity); err != nil {
		t.Fatal(err)
	}
	if err := k.Suspend(id); err != nil {
		t.Fatal(err)
	}
	if err := k.Wake(id); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.State != model.StateWaiting || p.WaitingOn != WaitSuspended {
		t.Fatalf("signalled while suspended: %s on %s", p.State, p.WaitingOn)
	}
	if err := k.Resume(id); err != nil {
		t.Fatal(err)
	}
	if p.State != model.StateReady {
		t.Fatalf("after resume: %s", p.State)
	}
}

func TestSetPriorityAffectsHeir(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	a := mustCreate(t, k, periodicSpec("a", 100, 10))
	b := mustCreate(t, k, periodicSpec("b", 100, 20))
	if err := k.Start(a); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(b); err != nil {
		t.Fatal(err)
	}
	if h, _ := k.Heir(); h.ID != a {
		t.Fatalf("heir = %v, want a", h)
	}
	if err := k.SetPriority(b, 1); err != nil {
		t.Fatal(err)
	}
	if h, _ := k.Heir(); h.ID != b {
		t.Fatalf("after boost heir = %v, want b", h)
	}
	// Base priority restored on restart.
	if err := k.Stop(b); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(b); err != nil {
		t.Fatal(err)
	}
	pb, _ := k.Get(b)
	if pb.CurrentPriority != 20 {
		t.Errorf("restart priority = %d, want base 20", pb.CurrentPriority)
	}
	dormant := mustCreate(t, k, aperiodicSpec("d", 9))
	if err := k.SetPriority(dormant, 1); !errors.Is(err, ErrNotStarted) {
		t.Errorf("set priority dormant = %v", err)
	}
}

func TestReplenish(t *testing.T) {
	clock := &testClock{now: 0}
	k, obs := newTestKernel(t, clock)
	id := mustCreate(t, k, periodicSpec("a", 100, 5))
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	clock.now = 60
	if err := k.Replenish(id, 30); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Get(id)
	if p.Deadline != 90 || obs.set[id] != 90 {
		t.Errorf("replenished deadline = %d, want 90", p.Deadline)
	}
	if err := k.Replenish(id, 0); err == nil {
		t.Error("zero budget accepted")
	}
	// Infinite-deadline processes ignore replenish.
	bg := mustCreate(t, k, aperiodicSpec("bg", 9))
	if err := k.Start(bg); err != nil {
		t.Fatal(err)
	}
	if err := k.Replenish(bg, 10); err != nil {
		t.Fatal(err)
	}
	pbg, _ := k.Get(bg)
	if pbg.HasDeadline {
		t.Error("replenish must not create a deadline for deadline-free process")
	}
	// Dormant processes cannot replenish.
	d := mustCreate(t, k, periodicSpec("d", 100, 5))
	if err := k.Replenish(d, 10); !errors.Is(err, ErrNotStarted) {
		t.Errorf("replenish dormant = %v", err)
	}
}

func TestPreemptionLock(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	low := mustCreate(t, k, periodicSpec("low", 100, 20))
	hi := mustCreate(t, k, periodicSpec("hi", 100, 1))
	if err := k.Start(low); err != nil {
		t.Fatal(err)
	}
	k.Dispatch()
	if lvl := k.LockPreemption(); lvl != 1 {
		t.Fatalf("lock level = %d", lvl)
	}
	if err := k.Start(hi); err != nil {
		t.Fatal(err)
	}
	if h, _ := k.Heir(); h.ID != low {
		t.Fatalf("locked heir = %v, want low", h)
	}
	if lvl := k.UnlockPreemption(); lvl != 0 {
		t.Fatalf("unlock level = %d", lvl)
	}
	if h, _ := k.Heir(); h.ID != hi {
		t.Fatalf("unlocked heir = %v, want hi", h)
	}
	if k.UnlockPreemption() != 0 {
		t.Error("unlock below zero")
	}
	if k.LockLevel() != 0 {
		t.Error("LockLevel() wrong")
	}
}

func TestParavirtualizedClockProtection(t *testing.T) {
	k := NewKernel(Options{Partition: "LNX", Policy: PolicyRoundRobin})
	if err := k.DisableClockInterrupts(); !errors.Is(err, ErrParavirtualized) {
		t.Errorf("DisableClockInterrupts = %v, want ErrParavirtualized", err)
	}
}

func TestResetAll(t *testing.T) {
	clock := &testClock{}
	k, obs := newTestKernel(t, clock)
	a := mustCreate(t, k, periodicSpec("a", 100, 5))
	b := mustCreate(t, k, periodicSpec("b", 100, 6))
	if err := k.Start(a); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(b); err != nil {
		t.Fatal(err)
	}
	k.Dispatch()
	k.LockPreemption()
	k.ResetAll()
	for _, id := range []ProcessID{a, b} {
		p, _ := k.Get(id)
		if p.State != model.StateDormant || p.HasDeadline {
			t.Errorf("process %d after reset: %s hasDeadline=%v", id, p.State, p.HasDeadline)
		}
	}
	if len(obs.set) != 0 {
		t.Error("observer deadlines not cleared on reset")
	}
	if _, ok := k.Running(); ok {
		t.Error("running survivor after reset")
	}
	if k.LockLevel() != 0 {
		t.Error("lock level survived reset")
	}
	// Processes can be started again after reset.
	if err := k.Start(a); err != nil {
		t.Errorf("restart after reset: %v", err)
	}
}

func TestRunningAccessor(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	if _, ok := k.Running(); ok {
		t.Error("fresh kernel has running process")
	}
	id := mustCreate(t, k, aperiodicSpec("a", 1))
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	h, ok := k.Dispatch()
	if !ok || h.ID != id {
		t.Fatalf("Dispatch = %v %v", h, ok)
	}
	r, ok := k.Running()
	if !ok || r.ID != id {
		t.Fatalf("Running = %v %v", r, ok)
	}
}

func TestStringers(t *testing.T) {
	for kind, want := range map[WaitKind]string{
		WaitNone: "none", WaitDelay: "delay", WaitPeriod: "period",
		WaitSemaphore: "semaphore", WaitEvent: "event", WaitBuffer: "buffer",
		WaitBlackboard: "blackboard", WaitPort: "port", WaitSuspended: "suspended",
		WaitKind(99): "WaitKind(99)"} {
		if kind.String() != want {
			t.Errorf("WaitKind(%d).String() = %q, want %q", kind, kind.String(), want)
		}
	}
	for p, want := range map[Policy]string{
		PolicyPriorityPreemptive: "priority-preemptive",
		PolicyRoundRobin:         "round-robin",
		Policy(0):                "Policy(0)"} {
		if p.String() != want {
			t.Errorf("Policy.String() = %q, want %q", p.String(), want)
		}
	}
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	id := mustCreate(t, k, aperiodicSpec("a", 3))
	p, _ := k.Get(id)
	if s := p.String(); s == "" {
		t.Error("Process.String() empty")
	}
	if k.Partition() != "P1" {
		t.Error("Partition() wrong")
	}
}

// Property: the heir, whenever one exists, is always an eligible process
// with minimal (priority, readySeq) among eligible processes — eq. (14).
func TestHeirMinimalityProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		clock := &testClock{}
		k := NewKernel(Options{Partition: "P", Now: clock.fn()})
		var ids []ProcessID
		for i := 0; i < 8; i++ {
			id, err := k.Create(aperiodicSpec(
				string(rune('a'+i)), model.Priority(i%4)))
			if err != nil {
				return false
			}
			ids = append(ids, id)
		}
		for _, op := range ops {
			id := ids[int(op)%len(ids)]
			p, _ := k.Get(id)
			clock.now++
			switch (op / 8) % 4 {
			case 0:
				if p.State == model.StateDormant {
					_ = k.Start(id)
				}
			case 1:
				_ = k.Stop(id)
			case 2:
				if p.Eligible() {
					_ = k.Block(id, WaitSemaphore, tick.Infinity)
				}
			case 3:
				if p.State == model.StateWaiting && !p.Suspended {
					_ = k.Wake(id)
				}
			}
			// Invariant check after each op.
			h, ok := k.Heir()
			var best *Process
			for _, q := range k.Processes() {
				if !q.Eligible() {
					continue
				}
				if best == nil || q.CurrentPriority < best.CurrentPriority ||
					(q.CurrentPriority == best.CurrentPriority && q.readySeq < best.readySeq) {
					best = q
				}
			}
			if (best == nil) != !ok {
				return false
			}
			if best != nil && h.ID != best.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSporadicInterArrivalEnforcement: a non-periodic process with a
// positive period (the lower bound on inter-activation time, Sect. 3.3)
// cannot be restarted faster than that bound — event overload protection.
func TestSporadicInterArrivalEnforcement(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	id := mustCreate(t, k, model.TaskSpec{
		Name: "sporadic", Period: 50, Deadline: 40, BasePriority: 3, WCET: 10,
	})
	if err := k.Start(id); err != nil {
		t.Fatal(err)
	}
	if err := k.Stop(id); err != nil {
		t.Fatal(err)
	}
	// Re-arrival before the bound is rejected.
	clock.now = 30
	if err := k.Start(id); !errors.Is(err, ErrArrivalTooSoon) {
		t.Fatalf("early restart = %v, want ErrArrivalTooSoon", err)
	}
	// At the bound it is accepted.
	clock.now = 50
	if err := k.Start(id); err != nil {
		t.Fatalf("restart at bound = %v", err)
	}
	// Delayed start counts the release instant, not the call instant.
	if err := k.Stop(id); err != nil {
		t.Fatal(err)
	}
	clock.now = 60
	if err := k.DelayedStart(id, 10); !errors.Is(err, ErrArrivalTooSoon) {
		t.Fatalf("delayed release at 70 < bound 100 = %v", err)
	}
	if err := k.DelayedStart(id, 40); err != nil {
		t.Fatalf("delayed release at bound = %v", err)
	}
	// Plain aperiodic processes (Period 0) restart freely.
	bg := mustCreate(t, k, aperiodicSpec("bg", 9))
	if err := k.Start(bg); err != nil {
		t.Fatal(err)
	}
	if err := k.Stop(bg); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(bg); err != nil {
		t.Fatalf("aperiodic restart = %v", err)
	}
}
