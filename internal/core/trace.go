package core

import "air/internal/obs"

// Event is one trace record — an alias of the spine event. For
// obs.KindDeadlineMiss events Latency is the detection latency: how many ticks
// after the deadline instant the PAL violation monitoring detected the
// expiry (non-zero when the owning partition was inactive at the deadline,
// Sect. 6).
type Event = obs.Event

// traceEvent publishes one event on the module's spine with the module's
// core attribution (0 on single-core modules).
func (m *Module) traceEvent(e Event) {
	e.Core = m.coreID
	m.bus.Emit(e)
}

// newTraceRing sizes the module trace ring: capacity < 0 disables retention
// (metrics still accumulate), 0 selects obs.DefaultTraceCapacity. The ring
// admits only obs.TraceKinds, so the spine's high-frequency fine-grained
// events cannot crowd coarse trace records out of bounded retention.
func newTraceRing(capacity int) *obs.Ring {
	if capacity == 0 {
		capacity = obs.DefaultTraceCapacity
	}
	return obs.NewRingKinds(capacity, obs.TraceKinds()...) // nil for capacity < 0
}

// Trace returns a copy of the events retained by the module's trace ring.
// On a multicore shared spine this is the whole module trace, already in
// (time, core) emission order. Staged batched events are flushed first, so
// the view is always current.
func (m *Module) Trace() []Event {
	m.bus.Flush()
	return m.ring.Events()
}

// TraceKind returns the retained events of one kind.
func (m *Module) TraceKind(kind obs.Kind) []Event {
	var out []Event
	for _, e := range m.Trace() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Bus exposes the module's observability spine so integrators can attach
// additional sinks before Start (streaming JSONL export, custom probes).
func (m *Module) Bus() *obs.Bus { return m.bus }

// Metrics returns a snapshot of the spine's metrics registry: per-kind
// event counters plus detection-latency and window-gap histograms.
func (m *Module) Metrics() obs.Snapshot { return m.bus.Snapshot() }
