package obs

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"air/internal/tick"
)

// TestRingKindFilterWrapAround drives a kind-filtered ring far past capacity
// with a mixed-kind stream and checks the retention invariants at the wrap
// seam: filtered-out kinds must not consume slots or advance the head, the
// retained window must be exactly the newest `capacity` admitted events in
// oldest-first order, and CountKind must agree with Events() across the
// seam.
func TestRingKindFilterWrapAround(t *testing.T) {
	const capacity = 4
	r := NewRingKinds(capacity, KindDeadlineMiss, KindScheduleSwitch)

	// Interleave admitted and rejected kinds: 10 admitted events (alternating
	// the two admitted kinds) with high-frequency noise between every pair.
	admitted := 0
	for i := 0; i < 10; i++ {
		k := KindDeadlineMiss
		if i%2 == 1 {
			k = KindScheduleSwitch
		}
		r.Emit(Event{Time: tick.Ticks(i), Kind: k})
		admitted++
		for j := 0; j < 3; j++ {
			r.Emit(Event{Time: tick.Ticks(i), Kind: KindPreemption}) // filtered
		}
	}

	if r.Len() != capacity {
		t.Fatalf("Len = %d, want full ring %d", r.Len(), capacity)
	}
	events := r.Events()
	if len(events) != capacity {
		t.Fatalf("Events = %d, want %d", len(events), capacity)
	}
	// The newest 4 admitted events carry times 6..9, oldest first.
	for i, e := range events {
		wantTime := tick.Ticks(admitted - capacity + i)
		if e.Time != wantTime {
			t.Errorf("events[%d].Time = %d, want %d", i, e.Time, wantTime)
		}
		wantKind := KindDeadlineMiss
		if wantTime%2 == 1 {
			wantKind = KindScheduleSwitch
		}
		if e.Kind != wantKind {
			t.Errorf("events[%d].Kind = %v, want %v", i, e.Kind, wantKind)
		}
		if e.Kind == KindPreemption {
			t.Errorf("filtered kind retained at %d", i)
		}
	}

	// CountKind walks the same circular window: times 6,8 are misses and
	// 7,9 are switches.
	if n := r.CountKind(KindDeadlineMiss); n != 2 {
		t.Errorf("CountKind(miss) = %d, want 2", n)
	}
	if n := r.CountKind(KindScheduleSwitch); n != 2 {
		t.Errorf("CountKind(switch) = %d, want 2", n)
	}
	if n := r.CountKind(KindPreemption); n != 0 {
		t.Errorf("CountKind(filtered) = %d, want 0", n)
	}
}

// TestRingKindMaskBounds pins the 64-bit mask edges: kind 63 is filterable,
// kind 0 (invalid) and kinds ≥ 64 are always rejected by a filtered ring.
func TestRingKindMaskBounds(t *testing.T) {
	r := NewRingKinds(8, Kind(63))
	r.Emit(Event{Kind: Kind(63)})
	if r.Len() != 1 {
		t.Errorf("kind 63 not admitted: Len = %d", r.Len())
	}
	r.Emit(Event{Kind: Kind(0)})
	r.Emit(Event{Kind: Kind(64)})
	if r.Len() != 1 {
		t.Errorf("out-of-mask kinds admitted: Len = %d", r.Len())
	}
	// An unfiltered ring admits everything, including exotic kinds.
	u := NewRing(8)
	u.Emit(Event{Kind: Kind(0)})
	u.Emit(Event{Kind: Kind(64)})
	if u.Len() != 2 {
		t.Errorf("unfiltered ring dropped events: Len = %d", u.Len())
	}
}

// TestRingExactCapacityBoundary exercises the transition from filling to
// wrapping: the event that lands exactly at capacity must not evict, and the
// next one must evict exactly the oldest.
func TestRingExactCapacityBoundary(t *testing.T) {
	const capacity = 3
	r := NewRing(capacity)
	for i := 0; i < capacity; i++ {
		r.Emit(Event{Time: tick.Ticks(i)})
	}
	if got := r.Events(); got[0].Time != 0 || got[len(got)-1].Time != capacity-1 {
		t.Fatalf("filled ring = %+v", got)
	}
	r.Emit(Event{Time: capacity})
	got := r.Events()
	if len(got) != capacity || got[0].Time != 1 || got[capacity-1].Time != capacity {
		t.Errorf("after first eviction = %+v, want times 1..%d", got, capacity)
	}
}

// refRing is the reference model of a kind-filtered ring: a plain slice
// holding the newest capacity admitted events, oldest first.
type refRing struct {
	capacity int
	admit    map[Kind]bool
	events   []Event
}

func (m *refRing) emit(e Event) {
	if !m.admit[e.Kind] {
		return
	}
	if len(m.events) == m.capacity {
		m.events = m.events[1:]
	}
	m.events = append(m.events, e)
}

func (m *refRing) clone() *refRing {
	c := *m
	c.events = slices.Clone(m.events)
	return &c
}

// ringStream drives a ring and its reference model with one seeded stream
// of admitted and filtered kinds, comparing them after every emit (see
// wide for how much of the window each comparison covers).
type ringStream struct {
	t     *testing.T
	rng   *rand.Rand
	name  string
	kinds []Kind // every kind the stream draws from, admitted or not
	seq   tick.Ticks
}

func (s *ringStream) run(r *Ring, m *refRing, emits int) {
	s.t.Helper()
	for i := 0; i < emits; i++ {
		s.seq++
		e := Event{Time: s.seq, Kind: s.kinds[s.rng.Intn(len(s.kinds))], Detail: s.name}
		size := len(r.buf)
		r.Emit(e)
		m.emit(e)
		s.checkLen(r, m)
		if s.wide(r, len(r.buf) != size) {
			s.check(r, m)
		}
	}
}

// wide reports whether the check after an emit compares the whole retained
// window. A ring of up to 128 events is compared in full after every emit; a
// larger one on both sides of every growth, at the bound, at each pass of
// the wrap seam and at every 61st emit, which keeps the O(capacity)
// comparison from making the test quadratic in the capacity. Len and Cap
// are compared after every emit.
func (s *ringStream) wide(r *Ring, grew bool) bool {
	switch {
	case grew || r.n <= 2*ringFirstBuf || s.seq%61 == 0:
		return true
	case r.n < r.bound: // filling: about to grow
		return len(r.buf)-r.n < 2
	default: // full: at the seam
		return r.head < 2
	}
}

func (s *ringStream) checkLen(r *Ring, m *refRing) {
	s.t.Helper()
	if r.Len() != len(m.events) || r.Cap() != m.capacity {
		s.t.Fatalf("%s at %d: Len %d Cap %d, want %d and %d", s.name, s.seq, r.Len(), r.Cap(), len(m.events), m.capacity)
	}
	if len(r.buf) > m.capacity {
		s.t.Fatalf("%s at %d: buffer of %d events exceeds the capacity %d", s.name, s.seq, len(r.buf), m.capacity)
	}
}

func (s *ringStream) check(r *Ring, m *refRing) {
	s.t.Helper()
	s.checkLen(r, m)
	if got := r.Events(); !slices.Equal(got, m.events) {
		s.t.Fatalf("%s at %d: Events diverge from the reference (%d events, want %d)", s.name, s.seq, len(got), len(m.events))
	}
	counts := map[Kind]int{}
	for _, e := range m.events {
		counts[e.Kind]++
	}
	for _, k := range s.kinds {
		if got := r.CountKind(k); got != counts[k] {
			s.t.Fatalf("%s at %d: CountKind(%v) = %d, want %d", s.name, s.seq, k, got, counts[k])
		}
	}
}

// TestRingMatchesReference holds the growing ring to a plain slice of the
// newest admitted events across its life: filling through every growth,
// the exact bound and repeated wraps, clones taken mid-growth, at the bound
// and after a wrap (each then isolated from its source), and a refill after
// Reset. It also pins the growth schedule: a 64-event first buffer, then
// exactly min(2·size, capacity) per growth, so at most ⌈log2(capacity/64)⌉
// growths and never past the capacity.
func TestRingMatchesReference(t *testing.T) {
	admitted := []Kind{KindPartitionSwitch, KindDeadlineMiss, KindHMReport}
	all := append(slices.Clone(admitted), KindPreemption, KindHeirSelection)
	admit := map[Kind]bool{}
	for _, k := range admitted {
		admit[k] = true
	}
	for _, capacity := range []int{1, 3, 63, 64, 65, 100, 4096, 4097} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		s := &ringStream{t: t, rng: rng, kinds: all}
		r := NewRingKinds(capacity, admitted...)
		m := &refRing{capacity: capacity, admit: admit}
		// Past the bound each phase runs two laps of a small ring, but only
		// a few hundred emits of a large one: enough to move the seam.
		lap := min(capacity, 2*ringFirstBuf+1)

		// Fill to the bound one emit at a time, watching every growth.
		s.name = fmt.Sprintf("capacity %d", capacity)
		var sizes []int
		var mid *Ring
		var midRef *refRing
		for r.Len() < capacity {
			s.run(r, m, 1)
			if n := len(r.buf); n > 0 && (len(sizes) == 0 || sizes[len(sizes)-1] != n) {
				sizes = append(sizes, n)
			}
			if mid == nil && r.Len() == capacity/2+1 && r.Len() < capacity {
				mid, midRef = r.Clone(), m.clone()
			}
		}
		want := []int{min(ringFirstBuf, capacity)}
		for want[len(want)-1] < capacity {
			want = append(want, min(2*want[len(want)-1], capacity))
		}
		if !slices.Equal(sizes, want) {
			t.Errorf("%s: buffer sizes %v, want %v", s.name, sizes, want)
		}
		most := max(0, int(math.Ceil(math.Log2(float64(capacity)/ringFirstBuf))))
		if growths := len(sizes) - 1; growths > most {
			t.Errorf("%s: %d growths, want at most %d", s.name, growths, most)
		}

		atBound, atBoundRef := r.Clone(), m.clone()
		s.run(r, m, 2*lap+7)
		for capacity > 1 && r.head == 0 { // clone off the seam, which Clone normalizes
			s.run(r, m, 1)
		}
		wrapped, wrappedRef := r.Clone(), m.clone()

		// Each clone holds its source's events at the moment of cloning and
		// evolves on its own: the source's later emits never reach it, and
		// its emits never reach the source.
		for _, c := range []struct {
			name string
			ring *Ring
			ref  *refRing
		}{{"mid-growth clone", mid, midRef}, {"clone at the bound", atBound, atBoundRef}, {"clone after wraps", wrapped, wrappedRef}} {
			if c.ring == nil {
				continue // capacity 1 has no mid-growth point
			}
			s.name = fmt.Sprintf("capacity %d, %s", capacity, c.name)
			s.check(c.ring, c.ref)
			s.run(c.ring, c.ref, capacity-c.ring.Len()+lap+5)
			s.name = fmt.Sprintf("capacity %d, source after the %s", capacity, c.name)
			s.check(r, m)
			s.run(r, m, lap/2+3)
			s.name = fmt.Sprintf("capacity %d, %s after its source moved", capacity, c.name)
			s.check(c.ring, c.ref)
		}

		// Reset keeps the full-size buffer, so the refill never grows.
		s.name = fmt.Sprintf("capacity %d, after Reset", capacity)
		kept := &r.buf[0]
		r.Reset()
		m.events = nil
		s.check(r, m)
		for r.Len() < capacity {
			s.run(r, m, 1)
		}
		s.run(r, m, 2*lap+3)
		if &r.buf[0] != kept {
			t.Errorf("%s: the refill replaced the buffer Reset kept", s.name)
		}
	}
}

// TestRingAllocatesForWhatItHolds pins the on-demand ring's allocation: a
// new default-capacity ring allocates nothing until its first event and then
// only its first 64-event buffer, and a clone allocates for the events it
// copies, not for the capacity.
func TestRingAllocatesForWhatItHolds(t *testing.T) {
	eventBytes := uint64(unsafe.Sizeof(Event{}))
	ringBytes := uint64(unsafe.Sizeof(Ring{}))
	// limit allows a Ring plus a buffer of b bytes, rounded up to Go's size
	// classes (or whole pages), with the header the allocator puts on
	// pointerful objects above 512 B: 8 KiB of events takes 9,472 B.
	limit := func(b uint64) uint64 { return b + b/4 + 2*ringBytes }
	e := Event{Kind: KindPartitionSwitch}
	var keep *Ring

	if got := allocBytes(func() { keep = NewRing(DefaultTraceCapacity) }); got > limit(0) {
		t.Errorf("NewRing(%d) allocates %d B, want only the Ring (%d B)", DefaultTraceCapacity, got, ringBytes)
	}
	first := ringFirstBuf * eventBytes
	if got := allocBytes(func() { keep = NewRing(DefaultTraceCapacity); keep.Emit(e) }); got > limit(first) {
		t.Errorf("NewRing(%d) plus one event allocates %d B, want the first buffer (%d B)", DefaultTraceCapacity, got, first)
	}

	for _, n := range []int{1, 100, 1000} {
		r := NewRing(DefaultTraceCapacity)
		for i := 0; i < n; i++ {
			r.Emit(e)
		}
		held := uint64(n) * eventBytes
		if got := allocBytes(func() { keep = r.Clone() }); got > limit(held) {
			t.Errorf("clone of a ring holding %d events allocates %d B, want about %d B", n, got, held)
		}
	}
	_ = keep
}

// allocBytes returns the bytes f allocates per call, averaged over 100
// calls.
func allocBytes(f func()) uint64 {
	const runs = 100
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestRingConcurrentClones clones one ring from several goroutines at once,
// as campaign workers fork one snapshot, and grows each clone: Clone must
// only read its source (the race detector holds it to that) and every clone
// must start from the same events.
func TestRingConcurrentClones(t *testing.T) {
	for _, held := range []int{0, 100, DefaultTraceCapacity + 10} {
		r := NewRing(DefaultTraceCapacity)
		for i := 0; i < held; i++ {
			r.Emit(Event{Time: tick.Ticks(i)})
		}
		want := r.Events()
		clones := make([][]Event, 4)
		var wg sync.WaitGroup
		for w := range clones {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := r.Clone()
				clones[w] = c.Events()
				for i := 0; i < 2*ringFirstBuf; i++ {
					c.Emit(Event{Time: tick.Ticks(-i)})
				}
			}()
		}
		wg.Wait()
		for w, got := range clones {
			if !slices.Equal(got, want) {
				t.Errorf("holding %d: clone %d starts with %d events, want the source's %d", held, w, len(got), len(want))
			}
		}
		if got := r.Events(); !slices.Equal(got, want) {
			t.Errorf("holding %d: the source changed under its clones", held)
		}
	}
}
