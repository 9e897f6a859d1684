package obs

import (
	"air/internal/tick"
	"air/internal/wire"
)

// histBuckets is the number of log2 latency buckets: bucket i counts
// observations v with 2^(i-1) ≤ v < 2^i (bucket 0 counts v ≤ 0, which the
// simulation never produces but the registry tolerates).
const histBuckets = 16

// Histogram is a fixed-size log2-bucket latency histogram. All fields are
// plain values — observing never allocates.
type Histogram struct {
	count   uint64
	sum     uint64
	max     uint64
	buckets [histBuckets]uint64
}

//air:hotpath
func (h *Histogram) observe(v tick.Ticks) {
	h.count++
	if v <= 0 {
		h.buckets[0]++
		return
	}
	u := uint64(v)
	h.sum += u
	if u > h.max {
		h.max = u
	}
	b := 1
	for x := u; x > 1 && b < histBuckets-1; x >>= 1 {
		b++
	}
	h.buckets[b]++
}

// HistSnapshot is the JSON-serializable state of a Histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	last := -1
	for i, b := range h.buckets {
		if b != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = make([]uint64, last+1)
		copy(s.Buckets, h.buckets[:last+1])
	}
	return s
}

// Metrics is the spine's always-on registry: monotonic per-kind event
// counters plus latency histograms for deadline-miss detection latency and
// partition window gaps. All storage is fixed-size so observing an event on
// the hot path performs zero heap allocations.
type Metrics struct {
	counts [kindCount + 1]uint64
	// detection buckets DEADLINE_MISS detection latencies (PAL Algorithm 3,
	// paper Sect. 6); windowGap buckets the ticks a partition spent off the
	// processor before each window activation.
	detection Histogram
	windowGap Histogram
	// Recovery-orchestration histograms (internal/recovery): mttr buckets
	// the quarantine durations (QUARANTINE_EXIT latencies), degraded the
	// ticks spent in a safe-mode schedule (SCHEDULE_RESTORE latencies),
	// deferral the restart backoff delays (RESTART_DEFERRED latencies) and
	// restartsWindow the sliding-window restart counts carried by
	// recovery-granted PARTITION_RESTART events.
	mttr           Histogram
	degraded       Histogram
	deferral       Histogram
	restartsWindow Histogram
}

//air:hotpath
func (m *Metrics) observe(e Event) {
	if e.Kind >= 1 && int(e.Kind) <= kindCount {
		m.counts[e.Kind]++
	}
	switch e.Kind {
	case KindDeadlineMiss:
		m.detection.observe(e.Latency)
	case KindWindowActivation:
		m.windowGap.observe(e.Latency)
	case KindQuarantineExit:
		m.mttr.observe(e.Latency)
	case KindScheduleRestore:
		m.degraded.observe(e.Latency)
	case KindRestartDeferred:
		m.deferral.observe(e.Latency)
	case KindPartitionRestart:
		// Only restarts granted through the recovery layer carry a window
		// occupancy; the kernel's own restart events have zero Latency.
		if e.Latency > 0 {
			m.restartsWindow.observe(e.Latency)
		}
	}
}

// Observe folds one event into the registry. It is the exported form of the
// bus's internal observation path, letting a sink (e.g. the timeline
// analyzer) maintain a private registry under its own synchronization so
// telemetry servers can read counters concurrently with the simulation.
//
//air:hotpath
func (m *Metrics) Observe(e Event) { m.observe(e) }

// Count returns the monotonic counter for one kind.
func (m *Metrics) Count(k Kind) uint64 {
	if m == nil || k < 1 || int(k) > kindCount {
		return 0
	}
	return m.counts[k]
}

// Snapshot captures the registry state as a serializable value.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	var total uint64
	var counts map[string]uint64
	for k := 1; k <= kindCount; k++ {
		if c := m.counts[k]; c != 0 {
			if counts == nil {
				counts = make(map[string]uint64, kindCount)
			}
			counts[Kind(k).String()] = c
			total += c
		}
	}
	return Snapshot{
		Events:            total,
		Counts:            counts,
		DetectionLatency:  m.detection.snapshot(),
		WindowGap:         m.windowGap.snapshot(),
		MTTR:              m.mttr.snapshot(),
		DegradedTicks:     m.degraded.snapshot(),
		RestartDeferral:   m.deferral.snapshot(),
		RestartsPerWindow: m.restartsWindow.snapshot(),
	}
}

// Snapshot is a point-in-time copy of a Metrics registry, serializable to
// JSON and subtractable to form deltas (per-fault-class counter deltas in
// campaign reports, per-phase deltas in experiments).
type Snapshot struct {
	// Events is the total number of observed events across all kinds.
	Events uint64 `json:"events"`
	// Counts maps kind names to monotonic counters; zero counters are
	// omitted so snapshots stay compact and deterministic.
	Counts           map[string]uint64 `json:"counts,omitempty"`
	DetectionLatency HistSnapshot      `json:"detectionLatency"`
	WindowGap        HistSnapshot      `json:"windowGap"`
	// Recovery-effectiveness histograms: quarantine durations (MTTR, in
	// ticks), ticks spent in degraded-mode schedules, restart backoff
	// deferrals and restart counts per sliding budget window.
	MTTR              HistSnapshot `json:"mttr"`
	DegradedTicks     HistSnapshot `json:"degradedTicks"`
	RestartDeferral   HistSnapshot `json:"restartDeferral"`
	RestartsPerWindow HistSnapshot `json:"restartsPerWindow"`
}

// Count returns the snapshot's counter for a kind name (0 when absent).
func (s Snapshot) Count(kind string) uint64 { return s.Counts[kind] }

// CountKind returns the snapshot's counter for a kind.
func (s Snapshot) CountKind(k Kind) uint64 { return s.Counts[k.String()] }

// Sub returns the per-counter delta s − base (counters are monotonic, so
// deltas of a later snapshot against an earlier one are non-negative;
// histograms subtract field-wise except Max, which keeps s's value).
func (s Snapshot) Sub(base Snapshot) Snapshot {
	d := Snapshot{
		Events:            s.Events - base.Events,
		DetectionLatency:  subHist(s.DetectionLatency, base.DetectionLatency),
		WindowGap:         subHist(s.WindowGap, base.WindowGap),
		MTTR:              subHist(s.MTTR, base.MTTR),
		DegradedTicks:     subHist(s.DegradedTicks, base.DegradedTicks),
		RestartDeferral:   subHist(s.RestartDeferral, base.RestartDeferral),
		RestartsPerWindow: subHist(s.RestartsPerWindow, base.RestartsPerWindow),
	}
	for name, c := range s.Counts { //air:allow(maprange): map-to-map difference; order-insensitive
		if delta := c - base.Counts[name]; delta != 0 {
			if d.Counts == nil {
				d.Counts = make(map[string]uint64, len(s.Counts))
			}
			d.Counts[name] = delta
		}
	}
	return d
}

// Add returns the per-counter sum s + other — how campaign aggregation folds
// the per-run snapshots of one scenario or fault class into a class total.
func (s Snapshot) Add(other Snapshot) Snapshot {
	var t Snapshot
	t.Accumulate(&s)
	t.Accumulate(&other)
	return t
}

// Accumulate adds o into s in place: Add's one merge rule, without a fresh
// snapshot per fold. s never takes o's map or bucket slices, so what s
// accumulates stays independent of o.
func (s *Snapshot) Accumulate(o *Snapshot) {
	s.Events += o.Events
	s.DetectionLatency.accumulate(&o.DetectionLatency)
	s.WindowGap.accumulate(&o.WindowGap)
	s.MTTR.accumulate(&o.MTTR)
	s.DegradedTicks.accumulate(&o.DegradedTicks)
	s.RestartDeferral.accumulate(&o.RestartDeferral)
	s.RestartsPerWindow.accumulate(&o.RestartsPerWindow)
	if o.Counts != nil {
		if s.Counts == nil {
			s.Counts = make(map[string]uint64, len(o.Counts))
		}
		for name, c := range o.Counts { //air:allow(maprange): commutative map-to-map sum; order-insensitive
			s.Counts[name] += c
		}
	}
}

// accumulate adds o into h in place: counts and sums add, the maximum
// widens, the mean follows, buckets add index-wise into h's own slice.
func (h *HistSnapshot) accumulate(o *HistSnapshot) {
	h.Count += o.Count
	h.Sum += o.Sum
	h.Max = max(h.Max, o.Max)
	h.Mean = 0
	if h.Count > 0 {
		h.Mean = float64(h.Sum) / float64(h.Count)
	}
	h.Buckets = addBuckets(h.Buckets, o.Buckets)
}

// addBuckets adds o into b index-wise, growing b to o's length in a slice
// of its own, and returns it; nil when both are empty.
func addBuckets(b, o []uint64) []uint64 {
	if len(o) > len(b) {
		b = append(b, make([]uint64, len(o)-len(b))...)
	}
	for i, v := range o {
		b[i] += v
	}
	if len(b) == 0 {
		return nil
	}
	return b
}

func subHist(a, b HistSnapshot) HistSnapshot {
	d := HistSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Max: a.Max}
	if d.Count > 0 {
		d.Mean = float64(d.Sum) / float64(d.Count)
	}
	n := len(a.Buckets)
	if n > 0 {
		d.Buckets = make([]uint64, n)
		copy(d.Buckets, a.Buckets)
		for i, v := range b.Buckets {
			if i < n {
				d.Buckets[i] -= v
			}
		}
	}
	return d
}

// AppendSnapshot appends s as encoding/json writes it: the form a fleet
// completion carries each run's metrics in.
func AppendSnapshot(e *wire.Encoder, s *Snapshot) {
	e.Raw(`{"events":`)
	e.Uint(s.Events)
	if len(s.Counts) > 0 {
		e.Raw(`,"counts":`)
		e.UintMap(s.Counts)
	}
	appendHist(e, `,"detectionLatency":`, &s.DetectionLatency)
	appendHist(e, `,"windowGap":`, &s.WindowGap)
	appendHist(e, `,"mttr":`, &s.MTTR)
	appendHist(e, `,"degradedTicks":`, &s.DegradedTicks)
	appendHist(e, `,"restartDeferral":`, &s.RestartDeferral)
	appendHist(e, `,"restartsPerWindow":`, &s.RestartsPerWindow)
	e.Raw("}")
}

func appendHist(e *wire.Encoder, key string, h *HistSnapshot) {
	e.Raw(key)
	e.Raw(`{"count":`)
	e.Uint(h.Count)
	e.Raw(`,"sum":`)
	e.Uint(h.Sum)
	e.Raw(`,"max":`)
	e.Uint(h.Max)
	e.Raw(`,"mean":`)
	e.Float(h.Mean)
	if len(h.Buckets) > 0 {
		e.Raw(`,"buckets":`)
		e.Uints(h.Buckets)
	}
	e.Raw("}")
}

// ParseSnapshot reads into the zero s one snapshot as AppendSnapshot writes
// it, any member of which may be left out.
func ParseSnapshot(p *wire.Parser, s *Snapshot) {
	p.Object()
	if p.Field(`"events":`) {
		s.Events = p.Uint64()
	}
	if p.Field(`"counts":`) {
		s.Counts = p.NonemptyUintMap()
	}
	parseHist(p, `"detectionLatency":`, &s.DetectionLatency)
	parseHist(p, `"windowGap":`, &s.WindowGap)
	parseHist(p, `"mttr":`, &s.MTTR)
	parseHist(p, `"degradedTicks":`, &s.DegradedTicks)
	parseHist(p, `"restartDeferral":`, &s.RestartDeferral)
	parseHist(p, `"restartsPerWindow":`, &s.RestartsPerWindow)
	p.End()
}

func parseHist(p *wire.Parser, key string, h *HistSnapshot) {
	if !p.Field(key) {
		return
	}
	p.Object()
	if p.Field(`"count":`) {
		h.Count = p.Uint64()
	}
	if p.Field(`"sum":`) {
		h.Sum = p.Uint64()
	}
	if p.Field(`"max":`) {
		h.Max = p.Uint64()
	}
	if p.Field(`"mean":`) {
		h.Mean = p.Float64()
	}
	if p.Field(`"buckets":`) {
		h.Buckets = p.NonemptyUints()
	}
	p.End()
}
