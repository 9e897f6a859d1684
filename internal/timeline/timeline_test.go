package timeline

import (
	"slices"
	"testing"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// ev is shorthand for the synthetic event streams driven through the
// analyzer below.
func ev(t tick.Ticks, k obs.Kind, part model.PartitionName, proc string, lat tick.Ticks) obs.Event {
	return obs.Event{Time: t, Kind: k, Partition: part, Process: proc, Latency: lat}
}

func TestResponseJitterSlack(t *testing.T) {
	tl := New(Options{})
	// Two activations of one process: released with 100 ticks to deadline,
	// completing after 30 and then 40 ticks.
	tl.Emit(ev(0, obs.KindProcessRelease, "P1", "a", 100))
	tl.Emit(ev(30, obs.KindProcessComplete, "P1", "a", 30))
	tl.Emit(ev(200, obs.KindProcessRelease, "P1", "a", 100))
	tl.Emit(ev(240, obs.KindProcessComplete, "P1", "a", 40))

	s := tl.Snapshot()
	if len(s.Processes) != 1 {
		t.Fatalf("processes = %d, want 1", len(s.Processes))
	}
	p := s.Processes[0]
	if p.Releases != 2 || p.Completions != 2 {
		t.Errorf("releases/completions = %d/%d, want 2/2", p.Releases, p.Completions)
	}
	if p.Response.Count != 2 || p.Response.Min != 30 || p.Response.Max != 40 {
		t.Errorf("response = %+v, want count 2 min 30 max 40", p.Response)
	}
	// Jitter needs two responses: |40 − 30| = 10, observed once.
	if p.Jitter.Count != 1 || p.Jitter.Max != 10 {
		t.Errorf("jitter = %+v, want count 1 max 10", p.Jitter)
	}
	// Slacks: deadline 100 − completion 30 = 70; deadline 300 − 240 = 60.
	if p.Slack.Count != 2 || p.Slack.Min != 60 || p.Slack.Max != 70 {
		t.Errorf("slack = %+v, want count 2 min 60 max 70", p.Slack)
	}
	if s.Response.Count != 2 || s.Response.Max != 40 {
		t.Errorf("merged response = %+v", s.Response)
	}
}

func TestEarlyWarningPrecedesMiss(t *testing.T) {
	bus := obs.NewBus()
	ring := obs.NewRing(16)
	bus.Attach(ring)
	tl := Attach(bus, Options{})

	// Released at t=0 with deadline t=100: the watermark sits at t=75.
	bus.Emit(ev(0, obs.KindProcessRelease, "P1", "a", 100))
	if n := ring.CountKind(obs.KindSlackWarning); n != 0 {
		t.Fatalf("warning before watermark: %d", n)
	}
	// Crossing the watermark raises exactly one warning, re-published on
	// the bus with the remaining slack.
	bus.Emit(ev(80, obs.KindPartitionSwitch, "P1", "", 0))
	if n := ring.CountKind(obs.KindSlackWarning); n != 1 {
		t.Fatalf("warnings after watermark = %d, want 1", n)
	}
	bus.Emit(ev(90, obs.KindPartitionSwitch, "P1", "", 0))
	if n := ring.CountKind(obs.KindSlackWarning); n != 1 {
		t.Fatalf("warning re-raised for the same activation: %d", n)
	}
	var warn obs.Event
	for _, e := range ring.Events() {
		if e.Kind == obs.KindSlackWarning {
			warn = e
		}
	}
	if warn.Latency != 20 || warn.Process != "a" {
		t.Errorf("warning = %+v, want remaining 20 on process a", warn)
	}

	// The PAL detects the miss at t=110: lead time = 110 − 80 = 30.
	bus.Emit(ev(110, obs.KindDeadlineMiss, "P1", "a", 10))
	s := tl.Snapshot()
	if s.EarlyWarnings != 1 || s.DeadlineMisses != 1 {
		t.Fatalf("warnings/misses = %d/%d, want 1/1", s.EarlyWarnings, s.DeadlineMisses)
	}
	if s.EarlyWarningLead.Count != 1 || s.EarlyWarningLead.Max != 30 {
		t.Errorf("lead = %+v, want count 1 max 30", s.EarlyWarningLead)
	}
}

func TestNoDeadlineNoWarning(t *testing.T) {
	bus := obs.NewBus()
	ring := obs.NewRing(16)
	bus.Attach(ring)
	Attach(bus, Options{})
	// Latency 0 on a release means "no deadline": no watermark ever fires.
	bus.Emit(ev(0, obs.KindProcessRelease, "P1", "bg", 0))
	bus.Emit(ev(10_000, obs.KindPartitionSwitch, "P1", "", 0))
	if n := ring.CountKind(obs.KindSlackWarning); n != 0 {
		t.Errorf("deadline-free release warned: %d", n)
	}
}

func TestBudgetShortfallFlagsModelViolation(t *testing.T) {
	sys := &model.System{
		Partitions: []model.PartitionName{"P1"},
		Schedules: []model.Schedule{{
			Name: "chi", MTF: 1000,
			Requirements: []model.Requirement{{Partition: "P1", Cycle: 1000, Budget: 200}},
			Windows:      []model.Window{{Partition: "P1", Offset: 0, Duration: 200}},
		}},
	}
	bus := obs.NewBus()
	ring := obs.NewRing(16)
	bus.Attach(ring)
	tl := Attach(bus, Options{System: sys})

	// Cycle 1: the window supplies only 150 of the contracted 200 ticks.
	bus.Emit(ev(0, obs.KindWindowActivation, "P1", "", 0))
	bus.Emit(ev(150, obs.KindPreemption, "P1", "", 0))
	bus.Emit(ev(1000, obs.KindPartitionSwitch, "P1", "", 0))
	if n := ring.CountKind(obs.KindModelViolation); n != 1 {
		t.Fatalf("violations after starved cycle = %d, want 1", n)
	}
	var v obs.Event
	for _, e := range ring.Events() {
		if e.Kind == obs.KindModelViolation {
			v = e
		}
	}
	if v.Latency != 50 || v.Partition != "P1" {
		t.Errorf("violation = %+v, want shortfall 50 on P1", v)
	}

	// Cycle 2: the full budget arrives — no new violation.
	bus.Emit(ev(1000, obs.KindWindowActivation, "P1", "", 0))
	bus.Emit(ev(1200, obs.KindPreemption, "P1", "", 0))
	bus.Emit(ev(2000, obs.KindPartitionSwitch, "P1", "", 0))
	if n := ring.CountKind(obs.KindModelViolation); n != 1 {
		t.Fatalf("violations after honored cycle = %d, want still 1", n)
	}
	s := tl.Snapshot()
	if s.ModelViolations != 1 {
		t.Errorf("snapshot violations = %d, want 1", s.ModelViolations)
	}
	if len(s.Partitions) != 1 || s.Partitions[0].Supplied != 350 {
		t.Errorf("partitions = %+v, want P1 supplied 350", s.Partitions)
	}
}

func TestWindowStraddlingCycleBoundary(t *testing.T) {
	sys := &model.System{
		Partitions: []model.PartitionName{"P1"},
		Schedules: []model.Schedule{{
			Name: "chi", MTF: 1000,
			Requirements: []model.Requirement{{Partition: "P1", Cycle: 500, Budget: 100}},
			Windows:      []model.Window{{Partition: "P1", Offset: 0, Duration: 100}},
		}},
	}
	bus := obs.NewBus()
	ring := obs.NewRing(16)
	bus.Attach(ring)
	Attach(bus, Options{System: sys})
	// A window from 450 to 650 straddles the cycle boundary at 500: its
	// head (50 ticks) belongs to cycle 1, its tail (150) to cycle 2 — both
	// cycles meet the 100-tick budget, so no violation fires.
	bus.Emit(ev(450, obs.KindWindowActivation, "P1", "", 0))
	bus.Emit(ev(650, obs.KindPreemption, "P1", "", 0))
	bus.Emit(ev(1000, obs.KindPartitionSwitch, "P1", "", 0))
	if n := ring.CountKind(obs.KindModelViolation); n != 1 {
		// Cycle 1 got only 50 < 100 → exactly one violation; cycle 2 got
		// 150 ≥ 100 → none.
		t.Errorf("violations = %d, want 1 (starved head cycle only)", n)
	}
}

func TestScheduleSwitchAdoptsNewContract(t *testing.T) {
	sys := model.Fig8System()
	bus := obs.NewBus()
	tl := Attach(bus, Options{System: sys})
	if got := tl.Snapshot().Schedule; got != "chi1" {
		t.Fatalf("initial schedule = %q, want chi1", got)
	}
	// A switch request adopts at the next MTF boundary, not immediately.
	bus.Emit(obs.Event{Time: 100, Kind: obs.KindScheduleSwitch, Detail: "requested schedule chi2"})
	if got := tl.Snapshot().Schedule; got != "chi1" {
		t.Fatalf("schedule adopted before MTF boundary: %q", got)
	}
	bus.Emit(ev(1300, obs.KindPartitionSwitch, "P1", "", 0))
	if got := tl.Snapshot().Schedule; got != "chi2" {
		t.Errorf("schedule after boundary = %q, want chi2", got)
	}
}

func TestSnapshotAddMerges(t *testing.T) {
	mk := func(resp tick.Ticks) Snapshot {
		tl := New(Options{})
		tl.Emit(ev(0, obs.KindProcessRelease, "P1", "a", 100))
		tl.Emit(ev(resp, obs.KindProcessComplete, "P1", "a", resp))
		return tl.Snapshot()
	}
	sum := mk(30).Add(mk(50))
	if sum.Response.Count != 2 || sum.Response.Min != 30 || sum.Response.Max != 50 {
		t.Errorf("merged response = %+v", sum.Response)
	}
	if len(sum.Processes) != 1 || sum.Processes[0].Releases != 2 {
		t.Errorf("merged processes = %+v", sum.Processes)
	}
}

// TestSnapshotRowsKeyedByFields merges snapshots whose free-form names hold
// the characters a joined "core/partition/process" key would confuse: Add
// keeps every process apart and emits the rows in the (core, partition,
// process) order Timeline.Snapshot emits.
func TestSnapshotRowsKeyedByFields(t *testing.T) {
	tl := New(Options{})
	for i, p := range []struct {
		part model.PartitionName
		proc string
	}{{"a/b", "c"}, {"P1-x", "b"}, {"a", "b/c"}, {"P1", "a"}} {
		tl.Emit(ev(tick.Ticks(i), obs.KindProcessRelease, p.part, p.proc, 100))
	}
	rows := func(s Snapshot) []string {
		var out []string
		for _, p := range s.Processes {
			out = append(out, p.Partition+" "+p.Process)
		}
		return out
	}
	snap := tl.Snapshot()
	want := []string{"P1 a", "P1-x b", "a b/c", "a/b c"}
	if got := rows(snap); !slices.Equal(got, want) {
		t.Fatalf("Snapshot process rows %q, want %q", got, want)
	}
	for _, sum := range []Snapshot{snap.Add(Snapshot{}), Snapshot{}.Add(snap), snap.Add(snap)} {
		if got := rows(sum); !slices.Equal(got, want) {
			t.Errorf("Add process rows %q, want %q", got, want)
		}
	}
}

func TestFlightRecorderFreezesOnHMError(t *testing.T) {
	tl := New(Options{})
	const n = flightFrames + 6
	for i := tick.Ticks(0); i < n; i++ {
		tl.Emit(ev(i*100, obs.KindWindowActivation, "P1", "", 0))
	}
	d := tl.Flight()
	if d.Frozen || len(d.Frames) != flightFrames {
		t.Fatalf("live dump = frozen %v, %d frames; want live with %d", d.Frozen, len(d.Frames), flightFrames)
	}
	last := tick.Ticks(n-1) * 100
	if d.Frames[0].Time != 600 || d.Frames[flightFrames-1].Time != last {
		t.Errorf("live frames span %d..%d, want 600..%d", d.Frames[0].Time, d.Frames[flightFrames-1].Time, last)
	}

	tl.Emit(obs.Event{Time: last + 50, Kind: obs.KindHMReport, Partition: "P1",
		Detail: "deadline missed", Code: "DEADLINE_MISSED", Level: "PROCESS", Action: "HM_ACTION_STOP"})
	// Later windows must not scroll the frozen pre-error history away.
	tl.Emit(ev(last+100, obs.KindWindowActivation, "P1", "", 0))
	d = tl.Flight()
	if !d.Frozen || d.Cause == nil || d.Cause.Code != "DEADLINE_MISSED" {
		t.Fatalf("dump = %+v, want frozen with cause", d)
	}
	if len(d.Frames) != flightFrames || d.Frames[flightFrames-1].Time != last {
		t.Errorf("frozen frames end at %d, want %d", d.Frames[len(d.Frames)-1].Time, last)
	}
}

func TestFlightRecorderCountsDrops(t *testing.T) {
	tl := New(Options{})
	// The first flightFrames captures fill the ring without evicting
	// anything.
	for i := tick.Ticks(0); i < flightFrames; i++ {
		tl.Emit(ev(i*100, obs.KindWindowActivation, "P1", "", 0))
	}
	if d := tl.Flight(); d.DroppedFrames != 0 {
		t.Fatalf("drops before wrap = %d, want 0", d.DroppedFrames)
	}
	// Each capture past capacity evicts exactly one frame.
	const n = flightFrames + 6
	for i := tick.Ticks(flightFrames); i < n; i++ {
		tl.Emit(ev(i*100, obs.KindWindowActivation, "P1", "", 0))
	}
	if d := tl.Flight(); d.DroppedFrames != 6 {
		t.Fatalf("drops after wrap = %d, want 6", d.DroppedFrames)
	}

	// The freeze pins the drop count: post-error captures keep evicting from
	// the live ring but must not inflate the post-mortem.
	tl.Emit(obs.Event{Time: n*100 + 50, Kind: obs.KindHMReport, Partition: "P1",
		Detail: "deadline missed", Code: "DEADLINE_MISSED", Level: "PROCESS", Action: "HM_ACTION_STOP"})
	for i := tick.Ticks(n + 1); i < n+10; i++ {
		tl.Emit(ev(i*100, obs.KindWindowActivation, "P1", "", 0))
	}
	d := tl.Flight()
	if !d.Frozen || d.DroppedFrames != 6 {
		t.Errorf("frozen dump drops = %d (frozen=%v), want 6 pinned at freeze", d.DroppedFrames, d.Frozen)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := tick.Ticks(1); v <= 100; v++ {
		h.observe(v)
	}
	s := h.snap()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("snap = %+v", s)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("q100 = %d, want exact max 100", q)
	}
	// Interior quantiles carry log2 resolution: p50 lands in the bucket of
	// 50 (32..63), reported as its upper edge.
	if q := s.Quantile(0.5); q != 63 {
		t.Errorf("q50 = %d, want bucket edge 63", q)
	}
	if q := s.Quantile(0.01); q != 1 {
		t.Errorf("q1 = %d, want 1", q)
	}
	if z := (HistSnap{}).Quantile(0.5); z != 0 {
		t.Errorf("empty quantile = %d", z)
	}
}

// TestEmitSteadyStateAllocs pins the analyzer's hot path: after the first
// activation of each process has populated the maps, consuming events
// allocates nothing.
func TestEmitSteadyStateAllocs(t *testing.T) {
	tl := New(Options{System: model.Fig8System()})
	warm := []obs.Event{
		ev(0, obs.KindWindowActivation, "P1", "", 0),
		ev(0, obs.KindProcessRelease, "P1", "a", 650),
		ev(150, obs.KindProcessComplete, "P1", "a", 150),
		ev(200, obs.KindPreemption, "P1", "", 0),
	}
	for _, e := range warm {
		tl.Emit(e)
	}
	now := tick.Ticks(1300)
	avg := testing.AllocsPerRun(200, func() {
		tl.Emit(ev(now, obs.KindWindowActivation, "P1", "", 0))
		tl.Emit(ev(now, obs.KindProcessRelease, "P1", "a", 650))
		tl.Emit(ev(now+150, obs.KindProcessComplete, "P1", "a", 150))
		tl.Emit(ev(now+200, obs.KindPreemption, "P1", "", 0))
		now += 1300
	})
	if avg != 0 {
		t.Errorf("steady-state Emit allocates %.1f/iteration, want 0", avg)
	}
}
