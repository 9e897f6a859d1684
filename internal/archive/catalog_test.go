package archive_test

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"air/internal/archive"
	"air/internal/obs"
)

// FuzzOpenReader writes fuzzed bytes over the catalog of a small archive of
// three sealed segments: MANIFEST.json, or the index file of segment 2. The
// reader must never panic, and OpenReader, a scan that seeks into segment 2
// and an AsOf cut inside segment 3 must each return an error or what they
// return on the intact archive.
func FuzzOpenReader(f *testing.F) {
	// Each fuzz worker process runs this set-up once and then calls the
	// fuzz function sequentially, so it rewrites one working copy.
	dir := f.TempDir()
	writeArchive(f, dir, genEvents(192), archive.Options{SegmentRecords: 64, IndexEvery: 16})
	manifestPath := filepath.Join(dir, "MANIFEST.json")
	indexPath := filepath.Join(dir, "seg-000002.idx")
	manifest, index := readFile(f, manifestPath), readFile(f, indexPath)
	r, err := archive.OpenReader(dir)
	if err != nil {
		f.Fatal(err)
	}
	segs := r.Segments()
	if len(segs) != 3 {
		f.Fatalf("%d segments, want 3", len(segs))
	}
	scan := archive.Query{SinceTick: (segs[1].MinTick + segs[1].MaxTick) / 2, UntilTick: segs[2].MaxTick}
	asOf := (segs[2].MinTick + segs[2].MaxTick) / 2
	wantScan, err := collect(r, scan)
	if err != nil {
		f.Fatal(err)
	}
	wantState, err := r.AsOf(asOf, 0)
	if err != nil {
		f.Fatal(err)
	}
	if len(wantScan) == 0 || wantState.Events == 0 {
		f.Fatal("the intact answers are empty")
	}

	// Seeds stay small, as the fuzzer minimizes every new input before it
	// mutates on: the manifest in compact JSON, and manifests with one edit
	// each that a reader once answered from without an error.
	edited := func(edit func(m *archive.Manifest)) []byte {
		var m archive.Manifest
		if err := json.Unmarshal(manifest, &m); err != nil {
			f.Fatal(err)
		}
		edit(&m)
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(false, edited(func(*archive.Manifest) {}))
	f.Add(false, edited(func(m *archive.Manifest) { m.Segments[1].MaxTick = scan.SinceTick - 1 }))
	f.Add(false, edited(func(m *archive.Manifest) { m.Segments[2].MinTick = asOf + 1 }))
	f.Add(false, edited(func(m *archive.Manifest) { m.Segments, m.Records = m.Segments[:1], 64 }))
	f.Add(true, index)
	f.Add(true, index[:len(index)/2])
	f.Fuzz(func(t *testing.T, overIndex bool, data []byte) {
		writeFile(t, manifestPath, manifest)
		writeFile(t, indexPath, index)
		if overIndex {
			writeFile(t, indexPath, data)
		} else {
			writeFile(t, manifestPath, data)
		}
		r, err := archive.OpenReader(dir)
		if err != nil {
			return
		}
		if got, err := collect(r, scan); err == nil && !reflect.DeepEqual(got, wantScan) {
			t.Fatalf("scan of ticks [%d, %d] returned %d records, want the intact %d", scan.SinceTick, scan.UntilTick, len(got), len(wantScan))
		}
		if got, err := r.AsOf(asOf, 0); err == nil && !reflect.DeepEqual(got, wantState) {
			t.Fatalf("AsOf(%d) = %+v, want the intact %+v", asOf, got, wantState)
		}
	})
}

// TestScanChecksPassedSegment ends sealed segment 1 with a 10 KiB record,
// longer than the first chunk read back from a segment's end. A scan that
// seeks into segment 2 passes segment 1 over and reads its last frame once
// to confirm the manifest's MaxTick: the intact archive answers as the
// reference does, and a manifest whose segment 1 MaxTick was lowered, so
// that it ends before ticks the segment holds, fails the scan instead of
// losing those records.
func TestScanChecksPassedSegment(t *testing.T) {
	events := genEvents(48)
	last := obs.Record{Time: int64(events[15].Time), Kind: "SCHEDULE_SWITCH",
		Detail: "requested schedule " + strings.Repeat("0123456789", 1024)}
	events[15] = last.Event()
	dir := t.TempDir()
	writeArchive(t, dir, events, archive.Options{SegmentRecords: 16, IndexEvery: 4})
	segs := openReader(t, dir).Segments()
	q := archive.Query{SinceTick: segs[1].MinTick + 1, UntilTick: -1}
	if segs[0].MaxTick >= q.SinceTick || segs[0].MinTick == segs[0].MaxTick {
		t.Fatal("segment 1 must span more than one tick and end before the window")
	}
	r := openReader(t, dir)
	for round := 0; round < 2; round++ {
		if err := checkScan(r, events, q); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	editManifest(t, dir, func(m *archive.Manifest) { m.Segments[0].MaxTick-- })
	for _, q := range []archive.Query{q, {SinceTick: segs[0].MaxTick, UntilTick: -1}} {
		_, err := collect(openReader(t, dir), q)
		if err == nil || !strings.Contains(err.Error(), "archive: manifest: segment seg-000001.jsonl ends at tick") {
			t.Fatalf("scan from tick %d over a lowered MaxTick = %v, want a manifest error", q.SinceTick, err)
		}
	}
}
