package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"air/internal/core"
	"air/internal/obs"
	"air/internal/tick"
)

// span is one timed interval at a layer boundary, as written to the trace
// file. Op is the id of the root span (the benchmark op) it belongs to;
// Parent is 0 for a root. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span. Its start time is taken even without a tracer,
// so the same call sites time untraced runs.
type spanRef struct {
	id, op, parent int
	name           string
	start          time.Time
}

// maxSpans bounds the spans kept for the trace file; later spans still feed
// the per-layer numbers and are only counted as dropped.
const maxSpans = 200_000

// stepSampleCap bounds the reservoir of Module.Step durations.
const stepSampleCap = 1 << 16

// tracer collects spans and per-layer samples for a traced run. A nil
// *tracer is valid: spans are timed but nothing is recorded. Spans and
// samples may be recorded from several goroutines; the step and sink
// accumulators belong to the one goroutine that steps modules.
type tracer struct {
	origin time.Time

	mu       sync.Mutex
	nextID   int
	spans    []span
	dropped  int
	childNs  map[int]int64
	samples  map[string][]float64
	coverage []float64

	sinkDepth  int
	sinkNs     int64
	sinks      map[string]*sinkStat
	stepCount  int64
	stepNs     int64
	stepSelfNs int64
	stepEvents uint64
	stepSample []float64
	rng        *rand.Rand
}

type sinkStat struct{ ns, n int64 }

func newTracer(seed uint64) *tracer {
	return &tracer{
		origin:  time.Now(),
		childNs: map[int]int64{},
		samples: map[string][]float64{},
		sinks:   map[string]*sinkStat{},
		rng:     rand.New(rand.NewSource(int64(seed))),
	}
}

// start opens a span under parent (nil for a root op).
func (t *tracer) start(name string, parent *spanRef) spanRef {
	s := spanRef{name: name}
	if t != nil {
		t.mu.Lock()
		t.nextID++
		s.id = t.nextID
		t.mu.Unlock()
		s.op = s.id
		if parent != nil {
			s.parent, s.op = parent.id, parent.op
		}
	}
	s.start = time.Now()
	return s
}

// end closes a span and returns its duration.
func (t *tracer) end(s spanRef) time.Duration {
	now := time.Now()
	t.add(s, s.start, now)
	return now.Sub(s.start)
}

// endOp closes a root op span and samples its coverage: the share of its
// wall time its direct children account for.
func (t *tracer) endOp(s spanRef) time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if child := t.add(s, s.start, now); t != nil && d > 0 {
		t.mu.Lock()
		t.coverage = append(t.coverage, float64(child)/float64(d.Nanoseconds()))
		t.mu.Unlock()
	}
	return d
}

// record adds a span whose times were measured elsewhere (a campaign run's
// WallNanos, a lease's client round trips).
func (t *tracer) record(name string, parent *spanRef, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(t.start(name, parent), start, end)
}

// add keeps the span, credits its duration to its parent, and returns (and
// forgets) the time its own children were credited.
func (t *tracer) add(s spanRef, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	d := end.Sub(start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.parent != 0 {
		t.childNs[s.parent] += d
	}
	child := t.childNs[s.id]
	delete(t.childNs, s.id)
	if len(t.spans) >= maxSpans {
		t.dropped++
		return child
	}
	t.spans = append(t.spans, span{ID: s.id, Op: s.op, Name: s.name, Parent: s.parent,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return child
}

// sample appends one observation of a per-layer quantity.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// sampleMs records a duration sample in milliseconds.
func (t *tracer) sampleMs(name string, d time.Duration) {
	t.sample(name, float64(d.Nanoseconds())/1e6)
}

func (t *tracer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.samples[name]
}

func (t *tracer) sum(name string) float64 {
	var s float64
	for _, v := range t.get(name) {
		s += v
	}
	return s
}

func (t *tracer) mean(name string) float64 {
	xs := t.get(name)
	if len(xs) == 0 {
		return 0
	}
	return t.sum(name) / float64(len(xs))
}

// timedSink wraps an obs.Sink and times each delivery. Nested deliveries
// (the timeline analyzer re-emitting its findings onto the bus while it
// handles an event) are timed for their own layer but counted only once
// toward the enclosing step's sink time.
type timedSink struct {
	inner obs.Sink
	tr    *tracer
	stat  *sinkStat
}

// wrap returns inner timed under layer, or inner itself without a tracer.
func (t *tracer) wrap(layer string, inner obs.Sink) obs.Sink {
	if t == nil {
		return inner
	}
	st := t.sinks[layer]
	if st == nil {
		st = &sinkStat{}
		t.sinks[layer] = st
	}
	return &timedSink{inner: inner, tr: t, stat: st}
}

func (s *timedSink) Emit(e obs.Event) {
	outer := s.tr.sinkDepth == 0
	s.tr.sinkDepth++
	t0 := time.Now()
	s.inner.Emit(e)
	d := time.Since(t0).Nanoseconds()
	s.tr.sinkDepth--
	s.stat.ns += d
	s.stat.n++
	if outer {
		s.tr.sinkNs += d
	}
}

func (t *tracer) sinkMeanNs(layer string) float64 {
	st := t.sinks[layer]
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.ns) / float64(st.n)
}

// advance ticks m by n ticks with Module.Run semantics (it stops when the
// module halts). Traced, it steps one tick at a time and times each Step,
// its sink deliveries and the spine events it produced; the step time is
// credited to parent's coverage.
func advance(m *core.Module, n tick.Ticks, tr *tracer, parent *spanRef) error {
	if tr == nil {
		return m.Run(n)
	}
	events := m.Metrics().Events
	var total int64
	defer func() {
		tr.stepEvents += m.Metrics().Events - events
		if parent != nil {
			tr.mu.Lock()
			tr.childNs[parent.id] += total
			tr.mu.Unlock()
		}
	}()
	for i := tick.Ticks(0); i < n; i++ {
		sink0 := tr.sinkNs
		t0 := time.Now()
		err := m.Step()
		d := time.Since(t0).Nanoseconds()
		total += d
		tr.observeStep(d, tr.sinkNs-sink0)
		if err != nil {
			if errors.Is(err, core.ErrHalted) {
				return nil
			}
			return err
		}
		if m.Halted() {
			return nil
		}
	}
	return nil
}

// observeStep accumulates one Step; the percentile sample is a uniform
// reservoir so long runs keep bounded memory.
func (t *tracer) observeStep(ns, sinkNs int64) {
	t.stepCount++
	t.stepNs += ns
	t.stepSelfNs += ns - sinkNs
	if len(t.stepSample) < stepSampleCap {
		t.stepSample = append(t.stepSample, float64(ns))
	} else if j := t.rng.Int63n(t.stepCount); j < stepSampleCap {
		t.stepSample[j] = float64(ns)
	}
}

// allocs is the process's cumulative heap allocation in a traced run (0
// untraced); deltas around a call measure what it allocated when no other
// goroutine is allocating.
func (t *tracer) allocs() uint64 {
	if t == nil {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// memSnapshot reads the GC counters a traced phase reports.
func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// traceFile is the document a traced run writes: machine shape, the
// per-layer numbers and every kept span.
type traceFile struct {
	Machine  machine           `json:"machine"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Layers   map[string]metric `json:"layers"`
	Dropped  int               `json:"dropped_spans"`
	Spans    []span            `json:"spans"`
}

func (t *tracer) write(dir string, doc traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc.Spans, doc.Dropped = t.spans, t.dropped
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, doc.Workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}
