package archive_test

import (
	"math/rand"
	"testing"

	"air/internal/archive"
	"air/internal/core"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
	"air/internal/timeline"
	"air/internal/workload"
)

// sect6Fault is the Sect. 6 deadline overrun of the faulty P1 process.
var sect6Fault = workload.FaultSpec{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220}

// mtfTicks is the Fig. 8 major time frame.
var mtfTicks = model.Fig8System().Schedules[0].MTF

// archiveRun archives mtfs major time frames of the Fig. 8 module with the
// given faults and the timeline analyzer attached — the spine a flight
// archive of airsim -fault holds — and returns its directory.
func archiveRun(tb testing.TB, mtfs int, faults ...workload.FaultSpec) string {
	tb.Helper()
	dir := tb.TempDir()
	sink, err := archive.Open(dir, archive.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.NewModule(workload.Config(workload.Options{TraceCapacity: -1, Faults: faults}))
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Shutdown()
	tl := timeline.New(timeline.Options{System: model.Fig8System()})
	tl.Bind(m.Bus())
	m.Bus().Attach(tl)
	m.Bus().Attach(sink)
	if err := m.Start(); err != nil {
		tb.Fatal(err)
	}
	if err := m.Run(mtfTicks * tick.Ticks(mtfs)); err != nil {
		tb.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// openReader opens the archive in dir for reading.
func openReader(tb testing.TB, dir string) *archive.Reader {
	tb.Helper()
	r, err := archive.OpenReader(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// lastTick is the valid time of r's last record.
func lastTick(tb testing.TB, r *archive.Reader) int64 {
	tb.Helper()
	segs := r.Segments()
	if len(segs) == 0 {
		tb.Fatal("empty archive")
	}
	return segs[len(segs)-1].MaxTick
}

// BenchmarkArchiveAsOf folds a whole 1000-MTF Sect. 6 archive on a fresh
// reader, opened outside the timed region: the cold fold an /archive/asof
// request makes and the first cut of airtrace -scrub.
func BenchmarkArchiveAsOf(b *testing.B) {
	dir := archiveRun(b, 1000, sect6Fault)
	at := lastTick(b, openReader(b, dir))
	b.ReportAllocs()
	b.ResetTimer()
	var folded uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := openReader(b, dir)
		b.StartTimer()
		st, err := r.AsOf(at, 0)
		if err != nil {
			b.Fatal(err)
		}
		folded = st.Events
	}
	b.ReportMetric(float64(folded), "records/op")
}

// BenchmarkArchiveAsOfWarm cuts one reader of a 1000-MTF Sect. 6 archive
// at seeded MTF boundaries, after a first fold has checkpointed the whole
// archive: the flight-archive workload's AsOf and every later cut of
// airtrace -scrub.
func BenchmarkArchiveAsOfWarm(b *testing.B) {
	r := openReader(b, archiveRun(b, 1000, sect6Fault))
	if _, err := r.AsOf(lastTick(b, r), 0); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cuts := make([]int64, 64)
	for i := range cuts {
		cuts[i] = int64(1+rng.Intn(1000)) * int64(mtfTicks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var folded uint64
	for i := 0; i < b.N; i++ {
		st, err := r.AsOf(cuts[i%len(cuts)], 0)
		if err != nil {
			b.Fatal(err)
		}
		folded += st.Events
	}
	b.ReportMetric(float64(folded)/float64(b.N), "records/op")
}

// BenchmarkArchiveOpenReader opens a reader on a 1000-MTF Sect. 6 archive:
// the set-up every /archive/* request, airtrace and airmon pays.
func BenchmarkArchiveOpenReader(b *testing.B) {
	dir := archiveRun(b, 1000, sect6Fault)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := archive.OpenReader(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveOpenScan opens a fresh reader on a 1000-MTF Sect. 6
// archive and scans it. mid-mtf scans MTF 500, as an /archive/range request
// does; each-segment scans one MTF in the middle of every segment, so the
// reader seeks into, and reads the index of, each one.
func BenchmarkArchiveOpenScan(b *testing.B) {
	dir := archiveRun(b, 1000, sect6Fault)
	mtf := int64(mtfTicks)
	each := []archive.Query{}
	for _, seg := range openReader(b, dir).Segments() {
		since := (seg.MinTick + seg.MaxTick) / 2
		each = append(each, archive.Query{SinceTick: since, UntilTick: since + mtf - 1})
	}
	for _, bc := range []struct {
		name    string
		queries []archive.Query
	}{
		{"mid-mtf", []archive.Query{{SinceTick: 499*mtf + 1, UntilTick: 500 * mtf}}},
		{"each-segment", each},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var records int
			for i := 0; i < b.N; i++ {
				r, err := archive.OpenReader(dir)
				if err != nil {
					b.Fatal(err)
				}
				records = 0
				for _, q := range bc.queries {
					if err := r.Scan(q, func(uint64, obs.Event) error { records++; return nil }); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(records), "records/op")
		})
	}
}

// BenchmarkArchiveDiff diffs two 1000-MTF Sect. 6 archives that split
// halfway, when a memory violation on P2 joins the Sect. 6 fault: the
// flight-archive workload's lockstep Diff.
func BenchmarkArchiveDiff(b *testing.B) {
	a := openReader(b, archiveRun(b, 1000, sect6Fault))
	v := openReader(b, archiveRun(b, 1000, sect6Fault,
		workload.FaultSpec{Kind: workload.FaultMemoryViolation, Partition: "P2", Phase: 500*mtfTicks + 37}))
	b.ReportAllocs()
	b.ResetTimer()
	var walked uint64
	for i := 0; i < b.N; i++ {
		d, err := archive.Diff(a, v)
		if err != nil {
			b.Fatal(err)
		}
		if !d.Diverged {
			b.Fatal("runs did not diverge")
		}
		walked = d.Seq
	}
	b.ReportMetric(float64(walked), "records/op")
}

// TestCheckpointStride pins the fold checkpoint stride at 64 records, the
// sparse index's default stride, on a 1000-MTF Sect. 6 archive: a cold fold
// leaves ⌊(records − 1)/64⌋ checkpoints, and every cut at an MTF boundary
// then resumes fewer than 64 records before the last record it folds.
func TestCheckpointStride(t *testing.T) {
	const stride = 64
	r := openReader(t, archiveRun(t, 1000, sect6Fault))
	if _, err := r.AsOf(-1, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Checkpoints(), int((r.Records()-1)/stride); got != want {
		t.Fatalf("a cold fold of %d records left %d checkpoints, want %d", r.Records(), got, want)
	}
	for k := int64(1); k <= 1000; k++ {
		at := k * int64(mtfTicks)
		st, err := r.AsOf(at, 0)
		if err != nil {
			t.Fatal(err)
		}
		if from := r.ResumeSeq(at, 0); st.Events+1-from >= stride {
			t.Fatalf("AsOf(%d, 0) folds records up to seq %d from seq %d, want fewer than %d", at, st.Events, from, stride)
		}
	}
}

// TestAsOfAllocsPerRecord bounds the read path's allocations: opening a
// fresh reader and folding a Sect. 6 archive makes fewer than three
// allocations per record, so the decoder and the fold's checkpoints
// allocate little beyond the event strings themselves.
func TestAsOfAllocsPerRecord(t *testing.T) {
	dir := archiveRun(t, 100, sect6Fault)
	at := lastTick(t, openReader(t, dir))
	st, err := openReader(t, dir).AsOf(at, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := openReader(t, dir).AsOf(at, 0); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(st.Events); per >= 3 {
		t.Fatalf("AsOf makes %.2f allocations per folded record (%.0f for %d records), want < 3", per, allocs, st.Events)
	}
}
