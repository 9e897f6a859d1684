package obs

// DefaultTraceCapacity is the module trace ring's bound when a module
// configuration leaves TraceCapacity at 0.
const DefaultTraceCapacity = 4096

// ringFirstBuf is the size, in events, of the backing array a ring allocates
// for its first event.
const ringFirstBuf = 64

// Ring is a bounded event sink backed by a true circular buffer: appending
// past capacity overwrites the oldest event in place with no copying or
// reallocation, so steady-state appends are O(1) regardless of capacity
// (the previous module trace re-sliced its backing array, memmoving up to
// capacity events on every add once full).
//
// The backing array grows to the capacity as events arrive instead of being
// allocated whole up front: a new ring allocates 64 events for its first
// event and then doubles, never past the capacity, so it grows at most
// ⌈log2(capacity/64)⌉ times and a ring that retains few events costs only
// what it retains. A clone starts at the size of the events it copies.
type Ring struct {
	buf   []Event
	bound int    // the capacity: len(buf) grows to it and never past it
	head  int    // index of the oldest retained event; 0 until the ring is full
	n     int    // number of retained events (≤ len(buf))
	mask  uint64 // bitmask of admitted kinds; 0 admits every kind
}

// NewRing creates a ring retaining the most recent capacity events. It
// allocates no events until the first one arrives. Capacity ≤ 0 yields a nil
// ring, which is a valid no-op sink.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		return nil
	}
	return &Ring{bound: capacity}
}

// NewRingKinds creates a ring that admits only the listed kinds, so bounded
// retention of coarse events (e.g. the module trace) is not crowded out by
// high-frequency fine-grained kinds sharing the spine.
func NewRingKinds(capacity int, kinds ...Kind) *Ring {
	r := NewRing(capacity)
	if r == nil {
		return nil
	}
	for _, k := range kinds {
		if k >= 1 && k < 64 {
			r.mask |= 1 << uint(k)
		}
	}
	return r
}

// Emit appends the event, overwriting the oldest when full. Implements Sink.
//
//air:hotpath
func (r *Ring) Emit(e Event) {
	if r == nil {
		return
	}
	if r.mask != 0 && (e.Kind < 1 || e.Kind >= 64 || r.mask&(1<<uint(e.Kind)) == 0) {
		return
	}
	if r.n < r.bound {
		if r.n == len(r.buf) {
			r.grow() //air:allow(alloc): grow's doubling, attributed here by inlining
		}
		r.buf[r.n] = e
		r.n++
		return
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % len(r.buf)
}

// grow replaces the backing array of a ring that is still filling with one
// twice its size (64 events for the first), never past the bound. head is 0
// while the ring fills, so the retained events move in one copy.
//
//air:hotpath
//air:allow(alloc): a ring grows at most ⌈log2(capacity/64)⌉ times in its life; once full it overwrites in place
func (r *Ring) grow() {
	buf := make([]Event, min(max(2*len(r.buf), ringFirstBuf), r.bound))
	copy(buf, r.buf[:r.n])
	r.buf = buf
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Cap returns the ring's capacity: the most events it retains, however
// few it has allocated room for so far.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return r.bound
}

// Events returns the retained events, oldest first, as a fresh slice the
// caller owns.
func (r *Ring) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	r.copyTo(out)
	return out
}

// copyTo copies the retained events, oldest first, into dst[:r.n].
func (r *Ring) copyTo(dst []Event) {
	first := copy(dst, r.buf[r.head:min(r.head+r.n, len(r.buf))])
	copy(dst[first:], r.buf[:r.n-first])
}

// CountKind returns how many retained events have the given kind.
func (r *Ring) CountKind(k Kind) int {
	if r == nil {
		return 0
	}
	count := 0
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)%len(r.buf)].Kind == k {
			count++
		}
	}
	return count
}

// Clone returns a deep copy of the ring, used by module snapshot/fork so a
// fork's trace starts with the parent's retained history. Only the retained
// events are copied, into a backing array of their size, so a clone costs
// what the ring holds rather than its capacity; the clone grows toward the
// same capacity as events arrive. The clone's cursor is normalized to the
// buffer start, which no reader can observe (Events, CountKind and Emit are
// all position-relative). Clone only reads its source, so concurrent clones
// of one ring are safe. Nil-safe.
func (r *Ring) Clone() *Ring {
	if r == nil {
		return nil
	}
	c := &Ring{bound: r.bound, n: r.n, mask: r.mask}
	if r.n > 0 {
		c.buf = make([]Event, r.n)
		r.copyTo(c.buf)
	}
	return c
}

// Reset discards all retained events, keeping the buffer.
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	r.head, r.n = 0, 0
}
