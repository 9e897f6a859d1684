package obs

import (
	"bytes"
	"strings"
	"testing"

	"air/internal/tick"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(1); int(k) <= kindCount; k++ {
		name := k.String()
		if strings.HasPrefix(name, "EventKind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
		if got := KindFromString(name); got != k {
			t.Fatalf("KindFromString(%q) = %v, want %v", name, got, k)
		}
	}
	if got := KindFromString("NO_SUCH_KIND"); got != 0 {
		t.Fatalf("unknown name parsed to %v, want 0", got)
	}
	if got := Kind(99).String(); got != "EventKind(99)" {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestTraceKindParity(t *testing.T) {
	// The first twelve kinds' numeric values and names are part of the
	// historical trace format; pin them explicitly.
	want := map[Kind]string{
		1: "PARTITION_SWITCH", 2: "SCHEDULE_SWITCH", 3: "DEADLINE_MISS",
		4: "HM_ACTION", 5: "PARTITION_RESTART", 6: "PARTITION_STOPPED",
		7: "PROCESS_STOPPED", 8: "PROCESS_RESTARTED", 9: "APPLICATION_MESSAGE",
		10: "MODULE_RESET", 11: "MODULE_HALT", 12: "MEMORY_VIOLATION",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("kind %d = %q, want %q", int(k), k.String(), name)
		}
	}
}

func TestNilBusAndZeroEmitter(t *testing.T) {
	var b *Bus
	b.Emit(Event{Kind: KindDeadlineMiss}) // must not panic
	b.Attach(NewRing(4))
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
	if got := b.Snapshot(); got.Events != 0 {
		t.Fatalf("nil bus snapshot has %d events", got.Events)
	}

	var em Emitter
	em.Emit(Event{Kind: KindPreemption}) // must not panic
	if em.Active() {
		t.Fatal("zero emitter reports active")
	}
}

func TestEmitterStampsCore(t *testing.T) {
	bus := NewBus()
	ring := NewRing(8)
	bus.Attach(ring)
	NewEmitter(bus, 2).Emit(Event{Time: 5, Kind: KindPortSend})
	events := ring.Events()
	if len(events) != 1 || events[0].Core != 2 {
		t.Fatalf("events = %+v, want one event with Core 2", events)
	}
}

func TestBusFansOutToSinksInOrder(t *testing.T) {
	bus := NewBus()
	a, b := NewRing(4), NewRing(4)
	bus.Attach(a)
	bus.Attach(b)
	if !bus.Active() {
		t.Fatal("bus with sinks reports inactive")
	}
	bus.Emit(Event{Time: 1, Kind: KindHMReport})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("sink lengths = %d, %d, want 1, 1", a.Len(), b.Len())
	}
	if got := bus.Metrics().Count(KindHMReport); got != 1 {
		t.Fatalf("HM_REPORT count = %d, want 1", got)
	}
}

func TestRingWrapOrdering(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Emit(Event{Time: tick.Ticks(i), Kind: KindPartitionSwitch})
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d, want 4", len(events))
	}
	for i, e := range events {
		if want := tick.Ticks(7 + i); e.Time != want {
			t.Fatalf("events[%d].Time = %d, want %d (oldest-first after wrap)", i, e.Time, want)
		}
	}
	if r.CountKind(KindPartitionSwitch) != 4 {
		t.Fatalf("CountKind = %d, want 4", r.CountKind(KindPartitionSwitch))
	}
	r.Reset()
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("reset ring not empty")
	}
}

// TestRingSteadyStateAppendIsO1 is the regression test for the old trace
// ring, whose append-past-capacity re-slice memmoved up to capacity events
// per add: a true circular buffer must overwrite in place, i.e. appending
// must never allocate once the buffer exists, at any capacity.
func TestRingSteadyStateAppendIsO1(t *testing.T) {
	for _, capacity := range []int{16, 4096, 1 << 16} {
		r := NewRing(capacity)
		// Fill past capacity so every timed append is a steady-state wrap.
		for i := 0; i < capacity+8; i++ {
			r.Emit(Event{Time: tick.Ticks(i)})
		}
		allocs := testing.AllocsPerRun(1000, func() {
			r.Emit(Event{Time: 1, Kind: KindPartitionSwitch, Detail: "x"})
		})
		if allocs != 0 {
			t.Errorf("capacity %d: steady-state append allocates %.1f/op, want 0", capacity, allocs)
		}
	}
}

func TestNilRingIsValidSink(t *testing.T) {
	r := NewRing(0)
	if r != nil {
		t.Fatal("capacity 0 should yield nil ring")
	}
	r.Emit(Event{Kind: KindModuleHalt}) // must not panic
	if r.Len() != 0 || r.Cap() != 0 || r.Events() != nil || r.CountKind(KindModuleHalt) != 0 {
		t.Fatal("nil ring not inert")
	}
	r.Reset()
}

func TestEmitNoSinksAllocFree(t *testing.T) {
	bus := NewBus()
	e := Event{Time: 42, Kind: KindDeadlineMiss, Partition: "P1", Process: "ctrl", Latency: 3}
	allocs := testing.AllocsPerRun(1000, func() { bus.Emit(e) })
	if allocs != 0 {
		t.Fatalf("Emit with no sinks allocates %.1f/op, want 0", allocs)
	}
}

func TestEmitRingSinkAllocFree(t *testing.T) {
	bus := NewBus()
	bus.Attach(NewRing(64))
	e := Event{Time: 42, Kind: KindWindowActivation, Partition: "P1", Latency: 7}
	allocs := testing.AllocsPerRun(1000, func() { bus.Emit(e) })
	if allocs != 0 {
		t.Fatalf("Emit into ring sink allocates %.1f/op, want 0", allocs)
	}
}

func TestMetricsHistograms(t *testing.T) {
	bus := NewBus()
	for _, lat := range []tick.Ticks{1, 2, 3, 8} {
		bus.Emit(Event{Kind: KindDeadlineMiss, Latency: lat})
	}
	bus.Emit(Event{Kind: KindWindowActivation, Latency: 5})
	s := bus.Snapshot()
	if s.Events != 5 {
		t.Fatalf("Events = %d, want 5", s.Events)
	}
	dl := s.DetectionLatency
	if dl.Count != 4 || dl.Sum != 14 || dl.Max != 8 {
		t.Fatalf("detection histogram = %+v, want count 4 sum 14 max 8", dl)
	}
	if dl.Mean != 3.5 {
		t.Fatalf("detection mean = %v, want 3.5", dl.Mean)
	}
	// log2 buckets: 1→b1, 2→b2, 3→b2, 8→b4.
	wantBuckets := []uint64{0, 1, 2, 0, 1}
	if len(dl.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %v, want %v", dl.Buckets, wantBuckets)
	}
	for i, w := range wantBuckets {
		if dl.Buckets[i] != w {
			t.Fatalf("buckets = %v, want %v", dl.Buckets, wantBuckets)
		}
	}
	if s.WindowGap.Count != 1 || s.WindowGap.Sum != 5 {
		t.Fatalf("window gap histogram = %+v", s.WindowGap)
	}
	if s.CountKind(KindDeadlineMiss) != 4 || s.CountKind(KindWindowActivation) != 1 {
		t.Fatalf("snapshot counts = %v", s.Counts)
	}
}

func TestReplayMatchesLiveMetrics(t *testing.T) {
	bus := NewBus()
	ring := NewRing(128)
	bus.Attach(ring)
	events := []Event{
		{Time: 1, Kind: KindPartitionSwitch, Partition: "A"},
		{Time: 2, Kind: KindDeadlineMiss, Partition: "A", Latency: 2},
		{Time: 3, Kind: KindHMReport, Partition: "A", Code: "DEADLINE_MISSED"},
	}
	for _, e := range events {
		bus.Emit(e)
	}
	live := bus.Snapshot()
	// Replaying the recorded stream through a fresh registry, as airtrace
	// -metrics does, reproduces the live counters.
	var m Metrics
	for _, e := range ring.Events() {
		m.Observe(e)
	}
	replayed := m.Snapshot()
	if live.Events != replayed.Events ||
		live.DetectionLatency.Count != replayed.DetectionLatency.Count ||
		live.DetectionLatency.Sum != replayed.DetectionLatency.Sum ||
		live.DetectionLatency.Max != replayed.DetectionLatency.Max {
		t.Fatalf("replay diverged: live %+v vs replayed %+v", live, replayed)
	}
	for name, c := range live.Counts {
		if replayed.Counts[name] != c {
			t.Fatalf("replay count %s = %d, want %d", name, replayed.Counts[name], c)
		}
	}
}

func TestJSONLSinkStreamsDuringRun(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	bus := NewBus()
	bus.Attach(sink)
	bus.Emit(Event{Time: 7, Kind: KindPortSend, Partition: "A", Process: "out", Detail: "ch", Core: 1})
	bus.Emit(Event{Time: 9, Kind: KindDeadlineMiss, Partition: "B", Latency: 4})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":7,"kind":"PORT_SEND","core":1,"partition":"A","process":"out","detail":"ch"}` + "\n" +
		`{"t":9,"kind":"DEADLINE_MISS","partition":"B","latency":4}` + "\n"
	if buf.String() != want {
		t.Fatalf("jsonl output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestEncodeDecodeEventsRoundTrip(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: KindPartitionSwitch, Partition: "P1", Detail: "dispatch"},
		{Time: 2, Kind: KindHMReport, Core: 1, Partition: "P2", Process: "nav",
			Code: "DEADLINE_MISSED", Level: "PROCESS", Action: "PROCESS_RESTART", Detail: "late"},
		{Time: 3, Kind: KindDeadlineMiss, Partition: "P1", Process: "ctl", Latency: 2},
	}
	var buf bytes.Buffer
	if err := EncodeEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

func TestDecodeEventsNamesBadLine(t *testing.T) {
	in := `{"t":1,"kind":"PORT_SEND","partition":"P1"}` + "\n" + `{"t":2, "kind":"PORT_SEND"}` + "\n"
	events, err := DecodeEvents(strings.NewReader(in))
	if err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
		t.Fatalf("err = %v, want one naming line 2", err)
	}
	if len(events) != 1 || events[0].Partition != "P1" {
		t.Fatalf("events before the bad line = %+v", events)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 12, Kind: KindDeadlineMiss, Partition: "P1", Process: "ctl", Detail: "missed"}
	if got := e.String(); got != "[    12] DEADLINE_MISS P1/ctl: missed" {
		t.Fatalf("String() = %q", got)
	}
	e.Core = 1
	if got := e.String(); got != "[    12] c1 DEADLINE_MISS P1/ctl: missed" {
		t.Fatalf("core-tagged String() = %q", got)
	}
}
