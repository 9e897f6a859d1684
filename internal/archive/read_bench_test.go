package archive_test

import (
	"math"
	"math/rand"
	"runtime"
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

// TestCheckpointStride pins the fold checkpoint stride at 16 records on a
// 1000-MTF Sect. 6 archive: a cold fold leaves ⌊(records − 1)/16⌋
// checkpoints, and every cut at an MTF boundary then resumes fewer than 16
// records before the last record it folds.
func TestCheckpointStride(t *testing.T) {
	const stride = 16
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

// memoryOf runs fn three times and returns the least it left retained and
// the least it allocated, read off runtime.MemStats deltas; fn returns what
// it keeps. Two collections before each reading empty the sync.Pool caches,
// which one collection only moves to their victim caches, so a pool filled
// earlier in the process cannot count as freed.
func memoryOf(fn func() any) (retained int64, allocated uint64) {
	retained, allocated = math.MaxInt64, math.MaxUint64
	for round := 0; round < 3; round++ {
		var before, done, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := fn()
		runtime.ReadMemStats(&done)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained = min(retained, int64(after.HeapAlloc)-int64(before.HeapAlloc))
		allocated = min(allocated, done.TotalAlloc-before.TotalAlloc)
		runtime.KeepAlive(kept)
	}
	return retained, allocated
}

// coldFold opens a reader on dir and folds the whole archive.
func coldFold(tb testing.TB, dir string) (*archive.Reader, error) {
	tb.Helper()
	r := openReader(tb, dir)
	_, err := r.AsOf(-1, 0)
	return r, err
}

// TestAsOfMemory bounds what opening a reader and folding a whole archive
// cost in memory: what the reader retains once the fold is done (its
// checkpoints and fold log) and what the two allocate, each the least of
// three rounds. On the 1000-MTF Sect. 6 archive (53,004 records, one HM
// report per MTF) at most 240 KB and 1.2 MB; full folds checkpointed every
// 64 records read 238 KB and 1.16 MB. On an HM-dense archive as long,
// genEvents' mix (five records in seven an HM report, a quarantine bracket
// or a schedule event, over four partitions), at most 800 KB and 2.6 MB;
// full folds checkpointed every 64 records read 631 KB and 2.24 MB, and a
// log of every such event 2.0 MB and 6.9 MB.
func TestAsOfMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations skew MemStats")
	}
	dense := t.TempDir()
	writeArchive(t, dense, genEvents(53004), archive.Options{})
	for _, c := range []struct {
		name                      string
		dir                       string
		maxRetained, maxAllocated int64
	}{
		{"sect6", archiveRun(t, 1000, sect6Fault), 240 << 10, 1200 << 10},
		{"hm-dense", dense, 800 << 10, 2600 << 10},
	} {
		retained, allocated := memoryOf(func() any {
			r, err := coldFold(t, c.dir)
			if err != nil {
				t.Fatal(err)
			}
			return r
		})
		t.Logf("%s: a cold fold retains %d B and allocates %d B", c.name, retained, allocated)
		if retained > c.maxRetained {
			t.Errorf("%s: a reader retains %d B after a cold fold, want at most %d", c.name, retained, c.maxRetained)
		}
		if int64(allocated) > c.maxAllocated {
			t.Errorf("%s: opening a reader and a cold fold allocate %d B, want at most %d", c.name, allocated, c.maxAllocated)
		}
	}
}

// TestAsOfInflatedManifest raises the record count of an archive's last
// sealed segment by 2^24, and the total with it, which the manifest checks
// allow. A cold fold fails at the segment file's end as a truncated
// segment, and allocates for the frames it read, not for the records the
// manifest states: no more than 64 KB beyond the intact archive's fold.
// Checkpoints sized by the stated count would take 32 MB.
func TestAsOfInflatedManifest(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, genEvents(3000), archive.Options{SegmentRecords: 1000})
	_, intact := memoryOf(func() any {
		r, err := coldFold(t, dir)
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
	editManifest(t, dir, func(m *archive.Manifest) {
		m.Segments[2].Records += 1 << 24
		m.Records += 1 << 24
	})
	var err error
	_, inflated := memoryOf(func() any {
		var r *archive.Reader
		r, err = coldFold(t, dir)
		return r
	})
	if want := "archive: segment seg-000003.jsonl truncated at seq 3001"; err == nil || err.Error() != want {
		t.Fatalf("a cold fold over an inflated record count = %v, want %q", err, want)
	}
	t.Logf("a cold fold allocates %d B on the intact archive, %d B on the inflated one", intact, inflated)
	if !raceEnabled && inflated > intact+64<<10 {
		t.Fatalf("a cold fold over an inflated record count allocates %d B, the intact archive's %d B", inflated, intact)
	}
}

// TestAsOfEarlyCutAllocates opens a reader on the 1000-MTF Sect. 6 archive
// and cuts it after its tenth MTF, as an /archive/asof request does. The
// two allocate for the 534 frames folded and their checkpoints, at most
// 64 KB, and nothing for the rest of the archive, whose checkpoints alone
// take 106 KB.
func TestAsOfEarlyCutAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations skew MemStats")
	}
	dir := archiveRun(t, 1000, sect6Fault)
	at := int64(10 * mtfTicks)
	var events uint64
	_, allocated := memoryOf(func() any {
		r := openReader(t, dir)
		st, err := r.AsOf(at, 0)
		if err != nil {
			t.Fatal(err)
		}
		events = st.Events
		return r
	})
	t.Logf("a fresh reader's cut at tick %d folds %d records and allocates %d B", at, events, allocated)
	if allocated > 64<<10 {
		t.Fatalf("a fresh reader's cut at tick %d (%d records) allocates %d B, want at most 64 KB", at, events, allocated)
	}
}
