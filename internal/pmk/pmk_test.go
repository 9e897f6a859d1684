package pmk

import (
	"errors"
	"testing"

	"air/internal/model"
	"air/internal/tick"
)

// compileFig8 returns a scheduler over the Fig. 8 system and the schedules
// it compiled.
func compileFig8() (*Scheduler, []*CompiledSchedule) {
	s := NewScheduler(model.Fig8System())
	return s, s.schedules
}

func TestCompileFig8(t *testing.T) {
	_, schedules := compileFig8()
	chi1 := schedules[0]
	if len(chi1.Points) != 7 {
		t.Fatalf("chi1 points = %d, want 7 (no idle gaps)", len(chi1.Points))
	}
	wantOffsets := []tick.Ticks{0, 200, 300, 400, 1000, 1100, 1200}
	wantParts := []model.PartitionName{"P1", "P2", "P3", "P4", "P2", "P3", "P4"}
	for i, pt := range chi1.Points {
		if pt.Offset != wantOffsets[i] || pt.Heir.Partition != wantParts[i] || pt.Heir.Idle {
			t.Errorf("point %d = %+v, want %s@%d", i, pt, wantParts[i], wantOffsets[i])
		}
		if pt.WindowIndex != i {
			t.Errorf("point %d window index = %d", i, pt.WindowIndex)
		}
	}
	// Change actions default to SKIP for all four partitions.
	if len(chi1.ChangeActions) != 4 {
		t.Fatalf("change actions = %v", chi1.ChangeActions)
	}
	for p, a := range chi1.ChangeActions {
		if a != model.ActionSkip {
			t.Errorf("partition %s action = %s, want SKIP", p, a)
		}
	}
}

func TestCompileIdleGaps(t *testing.T) {
	sys := &model.System{
		Partitions: []model.PartitionName{"A", "B"},
		Schedules: []model.Schedule{{
			Name: "gappy", MTF: 100,
			Requirements: []model.Requirement{
				{Partition: "A", Cycle: 100, Budget: 20},
				{Partition: "B", Cycle: 100, Budget: 20},
			},
			Windows: []model.Window{
				{Partition: "A", Offset: 10, Duration: 20}, // gap before
				{Partition: "B", Offset: 50, Duration: 20}, // gap between, gap after
			},
		}},
	}
	cs := compile(sys, &sys.Schedules[0])
	// idle@0, A@10, idle@30, B@50, idle@70.
	want := []struct {
		offset tick.Ticks
		idle   bool
		p      model.PartitionName
	}{
		{0, true, ""}, {10, false, "A"}, {30, true, ""}, {50, false, "B"}, {70, true, ""},
	}
	if len(cs.Points) != len(want) {
		t.Fatalf("points = %+v", cs.Points)
	}
	for i, w := range want {
		pt := cs.Points[i]
		if pt.Offset != w.offset || pt.Heir.Idle != w.idle || pt.Heir.Partition != w.p {
			t.Errorf("point %d = %+v, want %+v", i, pt, w)
		}
	}
}

func TestPartitionAt(t *testing.T) {
	_, schedules := compileFig8()
	chi1 := schedules[0]
	tests := []struct {
		offset tick.Ticks
		want   model.PartitionName
	}{
		{0, "P1"}, {199, "P1"}, {200, "P2"}, {399, "P3"}, {400, "P4"},
		{999, "P4"}, {1000, "P2"}, {1299, "P4"}, {1300, "P1"}, {1500, "P2"},
	}
	for _, tt := range tests {
		if got := chi1.PartitionAt(tt.offset); got.Partition != tt.want || got.Idle {
			t.Errorf("PartitionAt(%d) = %v, want %s", tt.offset, got, tt.want)
		}
	}
}

func TestSchedulerLifecycle(t *testing.T) {
	s, _ := compileFig8()
	heir, err := s.Start()
	if err != nil || heir.Partition != "P1" {
		t.Fatalf("Start = %v, %v", heir, err)
	}
	if _, err := s.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("double Start = %v", err)
	}
	if s.ScheduleCount() != 2 {
		t.Error("ScheduleCount wrong")
	}
	if s.Current().Name != "chi1" {
		t.Error("Current wrong")
	}
}

// TestSchedulerTimelineChi1 drives Algorithm 1 over two MTFs of chi1 and
// checks the heir at every tick against the Fig. 8 window layout.
func TestSchedulerTimelineChi1(t *testing.T) {
	s, schedules := compileFig8()
	heir, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	chi1 := schedules[0]
	for ticks := tick.Ticks(1); ticks <= 2*1300; ticks++ {
		if s.Tick() {
			heir = s.Heir()
		}
		want := chi1.PartitionAt(ticks % 1300)
		if heir != want {
			t.Fatalf("tick %d: heir = %v, want %v", ticks, heir, want)
		}
	}
	if s.Ticks() != 2600 {
		t.Errorf("Ticks = %d", s.Ticks())
	}
}

// TestBestCaseFrequency is part of experiment F1: the preemption-point test
// must come out false "far more often than true" — for Fig. 8, 7 points per
// 1300 ticks.
func TestBestCaseFrequency(t *testing.T) {
	s, _ := compileFig8()
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	points := 0
	const n = 13000 // ten MTFs
	for i := 0; i < n; i++ {
		if s.Tick() {
			points++
		}
	}
	if points != 70 {
		t.Errorf("preemption points over 10 MTFs = %d, want 70", points)
	}
	if frac := float64(points) / n; frac > 0.01 {
		t.Errorf("preemption point fraction %f, want << 1", frac)
	}
}

// TestScheduleSwitchAtMTFBoundary is experiment E4's scheduler half: a
// switch requested mid-MTF takes effect exactly at the end of the current
// major time frame, and successive requests override each other with only
// the last taking effect.
func TestScheduleSwitchAtMTFBoundary(t *testing.T) {
	s, _ := compileFig8()
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Advance into the MTF and request the switch at t=500.
	for i := 0; i < 500; i++ {
		s.Tick()
	}
	if err := s.RequestSwitch(1); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Current != 0 || st.Next != 1 || st.LastSwitch != 0 {
		t.Fatalf("status after request = %+v", st)
	}
	// Successive request back to schedule 0, then to 1 again: last wins.
	if err := s.RequestSwitch(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RequestSwitch(1); err != nil {
		t.Fatal(err)
	}
	// No switch may occur before the MTF boundary.
	for s.Ticks() < 1299 {
		s.Tick()
		if s.Status().Current != 0 {
			t.Fatalf("switched early at tick %d", s.Ticks())
		}
	}
	// Tick 1300 is the boundary: switch becomes effective; heir comes from
	// chi2 (still P1 at offset 0).
	s.Tick()
	st = s.Status()
	if st.Current != 1 || st.LastSwitch != 1300 {
		t.Fatalf("status after boundary = %+v", st)
	}
	if s.Current().Name != "chi2" {
		t.Error("current schedule not chi2")
	}
	if s.SwitchCount() != 1 {
		t.Errorf("SwitchCount = %d", s.SwitchCount())
	}
	// Under chi2 the 200-offset window belongs to P4.
	for s.Ticks() < 1500 {
		s.Tick()
	}
	if h := s.Heir(); h.Partition != "P4" {
		t.Errorf("heir at 1500 = %v, want P4 under chi2", h)
	}
	// Pending change actions were armed for all four partitions.
	if got := s.PendingActionCount(); got != 4 {
		t.Errorf("pending actions = %d, want 4", got)
	}
	if a, ok := s.ConsumePendingAction("P1"); !ok || a != model.ActionSkip {
		t.Errorf("ConsumePendingAction(P1) = %v, %v", a, ok)
	}
	if _, ok := s.ConsumePendingAction("P1"); ok {
		t.Error("pending action consumed twice")
	}
	if got := s.PendingActionCount(); got != 3 {
		t.Errorf("pending actions after consume = %d", got)
	}
}

func TestRequestSwitchValidation(t *testing.T) {
	s, _ := compileFig8()
	if err := s.RequestSwitch(5); !errors.Is(err, ErrUnknownSchedule) {
		t.Errorf("RequestSwitch(5) = %v", err)
	}
	if err := s.RequestSwitch(-1); !errors.Is(err, ErrUnknownSchedule) {
		t.Errorf("RequestSwitch(-1) = %v", err)
	}
	// Requesting the current schedule is a no-op at the boundary.
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RequestSwitch(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1300; i++ {
		s.Tick()
	}
	if s.SwitchCount() != 0 {
		t.Error("no-op switch counted")
	}
	if s.Status().LastSwitch != 0 {
		t.Error("LastSwitch should remain 0 when no switch ever occurred")
	}
}

func TestDispatcherSamePartitionFastPath(t *testing.T) {
	s, _ := compileFig8()
	heir, _ := s.Start()
	d := NewDispatcher(s, Hooks{})
	res := d.Dispatch(heir, 0)
	if !res.Switched || res.Active.Partition != "P1" {
		t.Fatalf("initial dispatch = %+v", res)
	}
	// Same partition: elapsedTicks = 1, no context switch.
	res = d.Dispatch(heir, 1)
	if res.Switched || res.ElapsedTicks != 1 {
		t.Fatalf("fast path = %+v", res)
	}
	if d.ContextSwitches() != 1 {
		t.Errorf("switches = %d", d.ContextSwitches())
	}
}

func TestDispatcherContextSwitchAccounting(t *testing.T) {
	s, _ := compileFig8()
	heir, _ := s.Start()

	var saved, restored []model.PartitionName
	var actions []model.PartitionName
	d := NewDispatcher(s, Hooks{
		SaveContext:    func(p model.PartitionName) { saved = append(saved, p) },
		RestoreContext: func(p model.PartitionName) { restored = append(restored, p) },
		PendingScheduleChangeAction: func(p model.PartitionName) {
			actions = append(actions, p)
		},
	})
	d.Dispatch(heir, 0)
	// Run the clock to the first preemption point at 200.
	for s.Ticks() < 200 {
		if s.Tick() {
			break
		}
		d.Dispatch(s.Heir(), s.Ticks())
	}
	res := d.Dispatch(s.Heir(), s.Ticks())
	if !res.Switched || res.Active.Partition != "P2" {
		t.Fatalf("dispatch at 200 = %+v", res)
	}
	// P2 never ran: elapsed = 200 - 0.
	if res.ElapsedTicks != 200 {
		t.Errorf("elapsed = %d, want 200", res.ElapsedTicks)
	}
	if len(saved) != 1 || saved[0] != "P1" {
		t.Errorf("saved = %v", saved)
	}
	if restored[len(restored)-1] != "P2" {
		t.Errorf("restored = %v", restored)
	}
	if d.LastTick("P1") != 199 {
		t.Errorf("P1 lastTick = %d, want 199 (ticks-1)", d.LastTick("P1"))
	}
	if d.Active().Partition != "P2" {
		t.Errorf("active = %v", d.Active())
	}
	// Hooks ran for the heir: restore then pending action.
	if len(actions) == 0 || actions[len(actions)-1] != "P2" {
		t.Errorf("actions = %v", actions)
	}
}

func TestDispatcherSecondRoundElapsed(t *testing.T) {
	// P2 runs [200,300), then again at [1000,1100): at the second dispatch
	// elapsed = 1000 - 299 = 701 — the catch-up announcement that lets the
	// PAL detect deadlines missed while P2 was inactive.
	s, _ := compileFig8()
	heir, _ := s.Start()
	d := NewDispatcher(s, Hooks{})
	d.Dispatch(heir, 0)
	var gotElapsed []tick.Ticks
	for s.Ticks() < 1000 {
		if s.Tick() {
			res := d.Dispatch(s.Heir(), s.Ticks())
			if res.Active.Partition == "P2" {
				gotElapsed = append(gotElapsed, res.ElapsedTicks)
			}
		}
	}
	if len(gotElapsed) != 2 || gotElapsed[0] != 200 || gotElapsed[1] != 701 {
		t.Fatalf("P2 elapsed sequence = %v, want [200 701]", gotElapsed)
	}
}

func TestDispatcherIdleWindows(t *testing.T) {
	sys := &model.System{
		Partitions: []model.PartitionName{"A"},
		Schedules: []model.Schedule{{
			Name: "gappy", MTF: 100,
			Requirements: []model.Requirement{{Partition: "A", Cycle: 100, Budget: 20}},
			Windows:      []model.Window{{Partition: "A", Offset: 50, Duration: 20}},
		}},
	}
	s := NewScheduler(sys)
	heir, _ := s.Start()
	if !heir.Idle {
		t.Fatalf("initial heir = %v, want idle", heir)
	}
	idleEntered := 0
	d := NewDispatcher(s, Hooks{EnterIdle: func() { idleEntered++ }})
	res := d.Dispatch(heir, 0)
	if !res.Active.Idle || res.ElapsedTicks != 0 {
		t.Fatalf("idle dispatch = %+v", res)
	}
	if idleEntered != 1 {
		t.Error("EnterIdle not invoked")
	}
	// Run one full MTF: A active during [50,70), idle otherwise.
	activeTicks := 0
	for s.Ticks() < 100 {
		if s.Tick() {
			d.Dispatch(s.Heir(), s.Ticks())
		}
		if !d.Active().Idle {
			activeTicks++
		}
	}
	if activeTicks != 20 {
		t.Errorf("partition active for %d ticks, want 20", activeTicks)
	}
	if idleEntered != 2 {
		t.Errorf("EnterIdle invoked %d times, want 2", idleEntered)
	}
	if heir := d.Active(); !heir.Idle {
		t.Errorf("active at MTF end = %v, want idle", heir)
	}
	if got := (Heir{Idle: true}).String(); got != "<idle>" {
		t.Errorf("Heir.String() = %q", got)
	}
	if got := (Heir{Partition: "A"}).String(); got != "A" {
		t.Errorf("Heir.String() = %q", got)
	}
}
