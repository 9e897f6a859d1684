package archive_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"air/internal/archive"
	"air/internal/core"
	"air/internal/durable"
	"air/internal/obs"
	"air/internal/workload"
)

// genEvents builds a deterministic synthetic spine stream with
// nondecreasing ticks and a mix of the kinds the as-of fold cares about.
// Events are built through obs.Record — the wire form — because only the
// emitting layers may construct raw obs.Event values.
func genEvents(n int) []obs.Event {
	out := make([]obs.Event, 0, n)
	state := uint64(0x9E3779B97F4A7C15)
	t := int64(0)
	parts := []string{"P1", "P2", "P3", "P4"}
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		t += int64(r % 3)
		p := parts[r%4]
		var rec obs.Record
		switch r % 7 {
		case 0:
			rec = obs.Record{Time: t, Kind: "HM_REPORT", Partition: p,
				Code: "DEADLINE_VIOLATION", Level: "PARTITION", Action: "WARM_RESTART"}
		case 1:
			rec = obs.Record{Time: t, Kind: "SCHEDULE_SWITCH", Detail: "requested schedule chi2"}
		case 2:
			rec = obs.Record{Time: t, Kind: "QUARANTINE_ENTER", Partition: p}
		case 3:
			rec = obs.Record{Time: t, Kind: "QUARANTINE_EXIT", Partition: p}
		case 4:
			rec = obs.Record{Time: t, Kind: "WINDOW_ACTIVATION", Partition: p,
				Latency: int64(r % 100), Core: int(r % 2)}
		case 5:
			rec = obs.Record{Time: t, Kind: "SCHEDULE_DEGRADE", Detail: "degraded to schedule safe"}
		default:
			rec = obs.Record{Time: t, Kind: "PROCESS_COMPLETE", Partition: p, Process: "hk",
				Detail: "odd \"detail\" with \\ backslash and\ttab"}
		}
		out = append(out, rec.Event())
	}
	return out
}

// writeArchive runs events through a sink into dir, and checks that the
// catalog files it leaves parse to what encoding/json reads from them.
func writeArchive(t testing.TB, dir string, events []obs.Event, opts archive.Options) {
	t.Helper()
	s, err := archive.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := archive.CheckCatalog(dir); err != nil {
		t.Fatalf("the catalog a sink wrote: %v", err)
	}
}

// seqEvent pairs a scanned record with its transaction seq.
type seqEvent struct {
	Seq   uint64
	Event obs.Event
}

// collect gathers the records a scan of q passes to its callback.
func collect(r *archive.Reader, q archive.Query) ([]seqEvent, error) {
	var out []seqEvent
	err := r.Scan(q, func(seq uint64, e obs.Event) error {
		out = append(out, seqEvent{Seq: seq, Event: e})
		return nil
	})
	return out, err
}

func readAll(t *testing.T, dir string) []seqEvent {
	t.Helper()
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(r, archive.Query{UntilTick: -1})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRoundTripBytes proves the store is lossless and wire-faithful: the
// archived stream, re-encoded through the pinned JSONL encoder, is
// byte-identical to encoding the original events directly.
func TestRoundTripBytes(t *testing.T) {
	events := genEvents(300)
	dir := t.TempDir()
	writeArchive(t, dir, events, archive.Options{SegmentRecords: 64, IndexEvery: 8})

	got := readAll(t, dir)
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i, se := range got {
		if se.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, se.Seq, i+1)
		}
		if se.Event != events[i] {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, se.Event, events[i])
		}
	}

	var live, replay bytes.Buffer
	if err := obs.EncodeEvents(&live, events); err != nil {
		t.Fatal(err)
	}
	replayed := make([]obs.Event, len(got))
	for i, se := range got {
		replayed[i] = se.Event
	}
	if err := obs.EncodeEvents(&replay, replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replay.Bytes()) {
		t.Fatal("replayed stream is not byte-identical to the live encoding")
	}
}

// TestModuleSinkRoundTrip attaches the archive sink and an in-memory
// recorder to a real faulty module run and proves the archive saw exactly
// the spine.
func TestModuleSinkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := archive.Open(dir, archive.Options{SegmentRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModule(workload.Config(workload.Options{TraceCapacity: -1, Faults: []workload.FaultSpec{{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	rec := &recorder{}
	m.Bus().Attach(rec)
	m.Bus().Attach(s)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*1300; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, dir)
	if len(got) != len(rec.events) {
		t.Fatalf("archived %d events, spine emitted %d", len(got), len(rec.events))
	}
	for i := range got {
		if got[i].Event != rec.events[i] {
			t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, got[i].Event, rec.events[i])
		}
	}
	if len(got) == 0 {
		t.Fatal("faulty run emitted no events")
	}
}

type recorder struct{ events []obs.Event }

func (r *recorder) Emit(e obs.Event) { r.events = append(r.events, e) }

// referenceAsOf is the independent linear fold the property test checks
// AsOf against: walk the prefix, apply the documented semantics. A negative
// asTick bounds nothing, as a zero asSeq does.
func referenceAsOf(events []obs.Event, asTick int64, asSeq uint64) archive.State {
	st := archive.State{AsOfTick: asTick, AsOfSeq: asSeq}
	quarantined := map[string]bool{}
	for i, e := range events {
		seq := uint64(i + 1)
		if asSeq > 0 && seq > asSeq {
			break
		}
		if asTick >= 0 && int64(e.Time) > asTick {
			break
		}
		st.Events++
		st.LastTick, st.LastSeq = int64(e.Time), seq
		switch e.Kind {
		case obs.KindScheduleSwitch, obs.KindScheduleDegrade, obs.KindScheduleRestore:
			d := e.Detail
			if i := strings.LastIndexByte(d, ' '); i >= 0 {
				st.Schedule = d[i+1:]
			} else {
				st.Schedule = ""
			}
			st.Degraded = e.Kind == obs.KindScheduleDegrade ||
				(st.Degraded && e.Kind != obs.KindScheduleRestore)
		case obs.KindHMReport:
			if st.HM == nil {
				st.HM = map[string]archive.HMEntry{}
			}
			ent := st.HM[string(e.Partition)]
			ent.Code, ent.Level, ent.Action = e.Code, e.Level, e.Action
			ent.Tick = int64(e.Time)
			ent.Reports++
			st.HM[string(e.Partition)] = ent
		case obs.KindQuarantineEnter:
			quarantined[string(e.Partition)] = true
		case obs.KindQuarantineExit:
			delete(quarantined, string(e.Partition))
		}
	}
	for p := range quarantined {
		st.Quarantined = append(st.Quarantined, p)
	}
	sort.Strings(st.Quarantined)
	return st
}

// propertyLayouts archives events twice for the property tests: sealed in
// segments of 512 records, and in segments of 700 with the writer
// abandoned unsealed, leaving a recovered tail.
func propertyLayouts(t *testing.T, events []obs.Event) []string {
	t.Helper()
	sealed := t.TempDir()
	writeArchive(t, sealed, events, archive.Options{SegmentRecords: 512, IndexEvery: 8})
	tail := t.TempDir()
	s, err := archive.Open(tail, archive.Options{SegmentRecords: 700, IndexEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil { // abandoned unsealed: 3000 events leave 4 sealed segments and a 200-record tail
		t.Fatal(err)
	}
	return []string{sealed, tail}
}

// cut is one AsOf query: valid time and transaction seq.
type cut struct {
	tick int64
	seq  uint64
}

// TestAsOfProperty drives (tick, seq) cuts through AsOf and checks every
// reconstruction against the reference fold of the event prefix — the
// bitemporal correctness property. The stream crosses a fold checkpoint
// every CheckpointEvery records; each layout runs the same cuts on fresh
// readers in ascending, descending and seeded-random order, so cuts resume
// from checkpoints recorded in every order, and then from four goroutines
// sharing one reader (run it under -race). The first layout puts
// checkpoints at segment heads and inside segments, the second inside
// segments and in an unsealed tail.
func TestAsOfProperty(t *testing.T) {
	events := genEvents(3000)
	maxTick := int64(events[len(events)-1].Time)
	cuts := []cut{{-1, 0}}
	state := uint64(12345)
	for trial := 0; trial < 80; trial++ {
		state = state*6364136223846793005 + 1442695040888963407
		asTick := int64(state>>33) % (maxTick + 2)
		state = state*6364136223846793005 + 1442695040888963407
		asSeq := (state >> 33) % uint64(len(events)+40)
		cuts = append(cuts, cut{asTick, asSeq})
	}
	// Around every checkpoint s: the seq cuts s-1, s and s+1 and the tick
	// cuts of records s-1 and s.
	for s := uint64(archive.CheckpointEvery + 1); s <= uint64(len(events)); s += archive.CheckpointEvery {
		cuts = append(cuts, cut{-1, s - 1}, cut{-1, s}, cut{-1, s + 1},
			cut{int64(events[s-2].Time), 0}, cut{int64(events[s-1].Time), 0})
	}
	want := make(map[cut]archive.State, len(cuts))
	for _, c := range cuts {
		want[c] = referenceAsOf(events, c.tick, c.seq)
	}
	check := func(r *archive.Reader, c cut) error {
		got, err := r.AsOf(c.tick, c.seq)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want[c]) {
			return fmt.Errorf("AsOf(%d, %d) diverges from reference:\n got %+v\nwant %+v", c.tick, c.seq, got, want[c])
		}
		return nil
	}
	ascending := append([]cut(nil), cuts...)
	sort.SliceStable(ascending, func(i, j int) bool {
		return want[ascending[i]].Events < want[ascending[j]].Events
	})
	descending := append([]cut(nil), ascending...)
	slices.Reverse(descending)
	shuffled := append([]cut(nil), cuts...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	for _, dir := range propertyLayouts(t, events) {
		for name, order := range map[string][]cut{"ascending": ascending, "descending": descending, "shuffled": shuffled} {
			r, err := archive.OpenReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range order {
				if err := check(r, c); err != nil {
					t.Fatalf("%s cuts: %v", name, err)
				}
			}
		}
		r, err := archive.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(shuffled); i += 4 {
					if err := check(r, shuffled[i]); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestAsOfCheckpointsKeepManifestStops raises a sealed segment's MinTick
// to its MaxTick, which the manifest checks allow and a shipped archive may
// carry. AsOf takes no stop from a manifest tick bound, so every cut below
// that MaxTick folds the records themselves, the same from checkpoints as
// on a fresh reader.
func TestAsOfCheckpointsKeepManifestStops(t *testing.T) {
	events := genEvents(3000)
	dir := t.TempDir()
	writeArchive(t, dir, events, archive.Options{SegmentRecords: 1000})
	editManifest(t, dir, func(m *archive.Manifest) { m.Segments[1].MinTick = m.Segments[1].MaxTick })
	warm, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.AsOf(-1, 0); err != nil { // checkpoints through the whole archive
		t.Fatal(err)
	}
	for seq := 1001; seq <= 2000; seq += 97 {
		tick := int64(events[seq-1].Time)
		fresh, err := archive.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.AsOf(tick, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.AsOf(tick, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AsOf(%d, 0) from checkpoints folded %d records, a fresh reader %d", tick, got.Events, want.Events)
		}
		if ref := referenceAsOf(events, tick, 0); !reflect.DeepEqual(got, ref) {
			t.Fatalf("AsOf(%d, 0) folded %d records, the reference %d", tick, got.Events, ref.Events)
		}
	}
}

// TestAsOfCorruptFrameAfterCheckpoints corrupts a sealed frame past a
// checkpointed fold: every cut that reaches it fails with ErrCorrupt, on
// every call, and records no checkpoint past it, while cuts before it still
// match the reference. A frame already folded into a checkpoint is not
// re-read: corrupting one fails a fresh reader and the cuts before that
// checkpoint, but the cuts past it answer from the checkpoint. The cuts sit
// on each side of a corrupt frame and of the checkpoints around it.
func TestAsOfCorruptFrameAfterCheckpoints(t *testing.T) {
	events := genEvents(3000)
	dir := t.TempDir()
	writeArchive(t, dir, events, archive.Options{SegmentRecords: 1000})
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AsOf(-1, 1600); err != nil { // checkpoints every CheckpointEvery records up to seq 1600
		t.Fatal(err)
	}
	// after is the seq of the first checkpoint whose fold holds record seq.
	after := func(seq uint64) uint64 {
		return (seq-1)/archive.CheckpointEvery*archive.CheckpointEvery + archive.CheckpointEvery + 1
	}
	corrupt := func(seq int) {
		t.Helper()
		path := filepath.Join(dir, fmt.Sprintf("seg-%06d.jsonl", (seq-1)/1000+1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		off := 0
		for _, l := range lines[:(seq-1)%1000] {
			off += len(l)
		}
		data[off+bytes.Index(lines[(seq-1)%1000], []byte(`"kind":"`))+8] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(r *archive.Reader, ok, bad []cut) {
		t.Helper()
		for round := 0; round < 3; round++ {
			for _, c := range bad {
				if _, err := r.AsOf(c.tick, c.seq); !errors.Is(err, durable.ErrCorrupt) {
					t.Fatalf("round %d: AsOf(%d, %d) past the corrupt frame = %v, want ErrCorrupt", round, c.tick, c.seq, err)
				}
			}
			for _, c := range ok {
				got, err := r.AsOf(c.tick, c.seq)
				if err != nil {
					t.Fatalf("round %d: AsOf(%d, %d) before the corrupt frame: %v", round, c.tick, c.seq, err)
				}
				if want := referenceAsOf(events, c.tick, c.seq); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: AsOf(%d, %d) diverges from reference", round, c.tick, c.seq)
				}
			}
		}
	}

	// The last checkpoint before frame 2200 lies past the warm fold; the
	// first cut that reads on to frame 2200 records it.
	last := after(2200) - archive.CheckpointEvery
	corrupt(2200)
	check(r,
		[]cut{{-1, 2199}, {-1, last - 2}, {-1, last - 1}, {-1, last}, {-1, 1700}, {-1, 100}, {int64(events[1500].Time), 0}},
		[]cut{{-1, 0}, {-1, 2200}, {-1, 2500}, {int64(events[2199].Time), 0}})

	next := after(100)
	corrupt(100)
	check(r,
		[]cut{{-1, 2199}, {-1, next}, {int64(events[1500].Time), 0}},
		[]cut{{-1, 0}, {-1, 100}, {-1, next - 2}})
	fresh, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(fresh, []cut{{-1, 99}}, []cut{{-1, 100}, {-1, 2199}})
}

// TestScanRange checks tick-window and kind filtering against a plain
// linear filter, across segment boundaries and through the sparse-index
// seek path.
func TestScanRange(t *testing.T) {
	events := genEvents(400)
	dir := t.TempDir()
	writeArchive(t, dir, events, archive.Options{SegmentRecords: 64, IndexEvery: 4})
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	maxTick := int64(events[len(events)-1].Time)
	windows := []struct{ since, until int64 }{
		{0, -1},
		{0, maxTick / 2},
		{maxTick / 3, 2 * maxTick / 3},
		{maxTick - 1, -1},
		{maxTick + 10, -1}, // empty
	}
	for _, w := range windows {
		for _, kinds := range [][]obs.Kind{nil, {obs.KindHMReport}, {obs.KindHMReport, obs.KindScheduleSwitch}} {
			if err := checkScan(r, events, archive.Query{SinceTick: w.since, UntilTick: w.until, Kinds: kinds}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// scanRef is the linear filter Scan is checked against: every record of
// events inside q's tick window and kinds (q.MaxSeq is not applied).
func scanRef(events []obs.Event, q archive.Query) []seqEvent {
	var want []seqEvent
	for i, e := range events {
		if archive.InTickRange(int64(e.Time), q.SinceTick, q.UntilTick) && (len(q.Kinds) == 0 || slices.Contains(q.Kinds, e.Kind)) {
			want = append(want, seqEvent{Seq: uint64(i + 1), Event: e})
		}
	}
	return want
}

// checkScan runs q on r and compares the records against scanRef.
func checkScan(r *archive.Reader, events []obs.Event, q archive.Query) error {
	got, err := collect(r, q)
	if err != nil {
		return fmt.Errorf("scan [%d,%d] kinds=%v: %w", q.SinceTick, q.UntilTick, q.Kinds, err)
	}
	if want := scanRef(events, q); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("scan [%d,%d] kinds=%v: got %d records, want %d", q.SinceTick, q.UntilTick, q.Kinds, len(got), len(want))
	}
	return nil
}

// TestScanSeekProperty drives seeded-random tick windows through Scan and
// checks each against scanRef, the range-query counterpart of
// TestAsOfProperty. Every sealed segment gets a window that seeks into it.
// Each layout runs the windows on fresh readers in three seeded-random
// orders, then from four goroutines sharing one reader (run it under
// -race). A reader reads each segment's index file once: with every index
// file corrupted afterwards, the shared reader still answers every window,
// while a fresh reader's seek into a sealed segment fails.
func TestScanSeekProperty(t *testing.T) {
	events := genEvents(3000)
	maxTick := int64(events[len(events)-1].Time)
	rng := rand.New(rand.NewSource(11))
	var windows []archive.Query
	for trial := 0; trial < 60; trial++ {
		since := rng.Int63n(maxTick + 2)
		q := archive.Query{SinceTick: since, UntilTick: -1}
		if rng.Intn(3) > 0 {
			q.UntilTick = since + rng.Int63n(maxTick/4)
		}
		if rng.Intn(2) == 0 {
			q.Kinds = []obs.Kind{obs.KindHMReport}
		}
		windows = append(windows, q)
	}

	for _, dir := range propertyLayouts(t, events) {
		layout := slices.Clone(windows)
		var seeks []archive.Query // one window seeking into each sealed segment
		segs := openReader(t, dir).Segments()
		for _, seg := range segs {
			if _, err := os.Stat(filepath.Join(dir, strings.TrimSuffix(seg.Name, ".jsonl")+".idx")); err != nil {
				continue // the unsealed tail
			}
			if seg.MinTick == seg.MaxTick {
				t.Fatalf("segment %s spans one tick: no window seeks into it", seg.Name)
			}
			seeks = append(seeks, archive.Query{SinceTick: seg.MinTick + 1, UntilTick: seg.MaxTick})
		}
		layout = append(layout, seeks...)
		for order := 0; order < 3; order++ {
			rng.Shuffle(len(layout), func(i, j int) { layout[i], layout[j] = layout[j], layout[i] })
			r := openReader(t, dir)
			for _, q := range layout {
				if err := checkScan(r, events, q); err != nil {
					t.Fatalf("order %d: %v", order, err)
				}
			}
		}
		shared := openReader(t, dir)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(layout); i += 4 {
					if err := checkScan(shared, events, layout[i]); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		idx, err := filepath.Glob(filepath.Join(dir, "*.idx"))
		if err != nil || len(idx) != len(seeks) {
			t.Fatalf("found index files %v (%v), want %d", idx, err, len(seeks))
		}
		for _, path := range idx {
			data := readFile(t, path)
			data[0] = flipHexDigit(data[0])
			writeFile(t, path, data)
		}
		for _, q := range layout {
			if err := checkScan(shared, events, q); err != nil {
				t.Fatalf("shared reader re-read an index file: %v", err)
			}
		}
		if _, err := collect(openReader(t, dir), seeks[0]); !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("fresh reader over a corrupt index file = %v, want ErrCorrupt", err)
		}
	}
}

// readFile returns the contents of path.
func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeFile replaces the contents of path.
func writeFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipHexDigit returns a lowercase hex digit other than c.
func flipHexDigit(c byte) byte {
	if c == '0' {
		return '1'
	}
	return '0'
}

// indexFile renders entries as an index file: one durable frame holding
// their JSON array.
func indexFile(t *testing.T, entries []archive.IndexEntry) []byte {
	t.Helper()
	payload, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	return framed(payload)
}

// framed renders payload as one durable frame.
func framed(payload []byte) []byte {
	frame := append(append(durable.Begin(nil), payload...), '\n')
	durable.Seal(frame)
	return frame
}

// indexEntries decodes the index file at path.
func indexEntries(t *testing.T, path string) []archive.IndexEntry {
	t.Helper()
	data := readFile(t, path)
	payload, err := durable.Payload(data[:len(data)-1])
	if err != nil {
		t.Fatal(err)
	}
	var entries []archive.IndexEntry
	if err := json.Unmarshal(payload, &entries); err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestIndexFileRejectsBadEntries rewrites sealed segment 2's index file
// with one rule broken per case: entries whose seqs and offsets strictly
// increase and lie inside the segment, in one CRC-valid frame, in the
// compact form writeIndex writes. The entries indented, or with their keys
// reordered, are a frame encoding/json reads but corrupt all the same. The
// archive still opens, since a reader reads an index only when a scan
// first seeks into its segment. Every scan that seeks into segment 2 fails
// with an error naming the file, on every call, and succeeds on the same
// reader once the file is mended; AsOf, Diff and scans that seek elsewhere
// still match the reference.
func TestIndexFileRejectsBadEntries(t *testing.T) {
	events := genEvents(64)
	opts := archive.Options{SegmentRecords: 16, IndexEvery: 4}
	root := t.TempDir()
	twin := filepath.Join(root, "twin")
	writeArchive(t, twin, events, opts) // 4 sealed segments of 16 records
	segs := openReader(t, twin).Segments()
	seg := segs[1]
	if seg.MinTick == seg.MaxTick || segs[2].MinTick == segs[2].MaxTick {
		t.Fatal("segments 2 and 3 must span more than one tick")
	}
	good := readFile(t, filepath.Join(twin, "seg-000002.idx"))
	entries := indexEntries(t, filepath.Join(twin, "seg-000002.idx"))
	edited := func(edit func(idx []archive.IndexEntry)) []byte {
		idx := slices.Clone(entries)
		edit(idx)
		return indexFile(t, idx)
	}
	flipped := slices.Clone(good)
	flipped[3] = flipHexDigit(flipped[3])
	indented, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	reordered := []byte("[")
	for i, ent := range entries {
		if i > 0 {
			reordered = append(reordered, ',')
		}
		reordered = fmt.Appendf(reordered, `{"t":%d,"offset":%d,"seq":%d}`, ent.Tick, ent.Offset, ent.Seq)
	}
	reordered = append(reordered, ']')
	for _, payload := range [][]byte{indented, reordered} {
		var got []archive.IndexEntry
		if err := json.Unmarshal(payload, &got); err != nil || !reflect.DeepEqual(got, entries) {
			t.Fatalf("encoding/json reads %q as %+v, %v; want the intact entries", payload, got, err)
		}
	}
	cases := []struct {
		name    string
		data    []byte
		corrupt bool // a bad frame or payload form: the error wraps durable.ErrCorrupt
	}{
		{"index seqs not increasing", edited(func(idx []archive.IndexEntry) { idx[2].Seq = idx[1].Seq }), false},
		{"index offsets not increasing", edited(func(idx []archive.IndexEntry) { idx[2].Offset = idx[1].Offset }), false},
		{"index seq past the segment", edited(func(idx []archive.IndexEntry) { idx[len(idx)-1].Seq = seg.SeqStart + seg.Records }), false},
		{"index seq before the segment", edited(func(idx []archive.IndexEntry) { idx[0].Seq = seg.SeqStart - 1 }), false},
		{"index offset past the segment", edited(func(idx []archive.IndexEntry) { idx[len(idx)-1].Offset = seg.Bytes }), false},
		{"flipped crc digit", flipped, true},
		{"index indented", framed(indented), true},
		{"index keys reordered", framed(reordered), true},
	}
	seeking := []archive.Query{
		{SinceTick: seg.MinTick + 1, UntilTick: -1},
		{SinceTick: seg.MaxTick, UntilTick: seg.MaxTick, Kinds: []obs.Kind{obs.KindHMReport}},
	}
	elsewhere := []archive.Query{
		{UntilTick: -1},
		{SinceTick: segs[0].MinTick + 1, UntilTick: -1},
		{SinceTick: segs[2].MinTick + 1, UntilTick: -1},
		{SinceTick: segs[3].MaxTick, UntilTick: -1},
	}
	cuts := []cut{{-1, 0}, {-1, 20}, {seg.MaxTick, 0}, {seg.MinTick + 1, 30}}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(root, fmt.Sprint(i))
			writeArchive(t, dir, events, opts)
			path := filepath.Join(dir, "seg-000002.idx")
			writeFile(t, path, tc.data)
			r := openReader(t, dir)
			for round := 0; round < 3; round++ {
				for _, q := range seeking {
					_, err := collect(r, q)
					if err == nil || !strings.Contains(err.Error(), "archive: index: seg-000002.idx") {
						t.Fatalf("round %d: scan from tick %d = %v, want an archive: index: seg-000002.idx error", round, q.SinceTick, err)
					}
					if errors.Is(err, durable.ErrCorrupt) != tc.corrupt {
						t.Fatalf("round %d: scan from tick %d = %v, want ErrCorrupt %v", round, q.SinceTick, err, tc.corrupt)
					}
				}
				for _, q := range elsewhere {
					if err := checkScan(r, events, q); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				for _, c := range cuts {
					got, err := r.AsOf(c.tick, c.seq)
					if err != nil {
						t.Fatalf("round %d: AsOf(%d, %d): %v", round, c.tick, c.seq, err)
					}
					if want := referenceAsOf(events, c.tick, c.seq); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: AsOf(%d, %d) diverges from reference", round, c.tick, c.seq)
					}
				}
				if d, err := archive.Diff(r, openReader(t, twin)); err != nil || d.Diverged {
					t.Fatalf("round %d: Diff against the intact twin = %+v, %v", round, d, err)
				}
			}
			writeFile(t, path, good)
			for _, q := range seeking {
				if err := checkScan(r, events, q); err != nil {
					t.Fatalf("after mending the index file: %v", err)
				}
			}
		})
	}
}

// TestOldManifestIndexIgnored opens archives in the layouts earlier
// writers left: each segment's index inside MANIFEST.json, here with
// offsets past the segments, and no index files, as written before index
// files existed; and the manifest indented by json.MarshalIndent, with no
// index key, as written before the compact manifest. Readers ignore the
// old key and enter every segment at its start, and read the indented
// manifest through encoding/json, so Scan, AsOf and Diff match the
// reference; a writer reopening either archive writes the compact
// manifest, without the key, at its next seal.
func TestOldManifestIndexIgnored(t *testing.T) {
	events := genEvents(400)
	opts := archive.Options{SegmentRecords: 64, IndexEvery: 8}
	twin := t.TempDir()
	writeArchive(t, twin, events[:300], opts)
	layouts := []struct {
		name    string
		rewrite func(t *testing.T, dir string) []byte // the older manifest
	}{
		{"index in manifest", func(t *testing.T, dir string) []byte {
			var m map[string]any
			if err := json.Unmarshal(readFile(t, filepath.Join(dir, "MANIFEST.json")), &m); err != nil {
				t.Fatal(err)
			}
			for i, seg := range m["segments"].([]any) {
				idxPath := filepath.Join(dir, fmt.Sprintf("seg-%06d.idx", i+1))
				entries := indexEntries(t, idxPath)
				entries[len(entries)-1].Offset = 1 << 40
				seg.(map[string]any)["index"] = entries
				if err := os.Remove(idxPath); err != nil {
					t.Fatal(err)
				}
			}
			data, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			return data
		}},
		{"indented manifest", func(t *testing.T, dir string) []byte {
			var m archive.Manifest
			if err := json.Unmarshal(readFile(t, filepath.Join(dir, "MANIFEST.json")), &m); err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			return data
		}},
	}
	for _, layout := range layouts {
		t.Run(layout.name, func(t *testing.T) {
			dir := t.TempDir()
			writeArchive(t, dir, events[:300], opts)
			path := filepath.Join(dir, "MANIFEST.json")
			writeFile(t, path, append(layout.rewrite(t, dir), '\n'))
			if _, err := archive.ParseManifest(readFile(t, path)); err == nil {
				t.Fatal("the older manifest is in the compact form")
			}

			r := openReader(t, dir)
			maxTick := int64(events[299].Time)
			for _, since := range []int64{0, 1, maxTick / 3, maxTick / 2, maxTick - 1} {
				for _, until := range []int64{-1, since + maxTick/5} {
					if err := checkScan(r, events[:300], archive.Query{SinceTick: since, UntilTick: until}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, c := range []cut{{-1, 0}, {maxTick / 2, 0}, {-1, 150}} {
				got, err := r.AsOf(c.tick, c.seq)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceAsOf(events[:300], c.tick, c.seq); !reflect.DeepEqual(got, want) {
					t.Fatalf("AsOf(%d, %d) diverges from reference", c.tick, c.seq)
				}
			}
			if d, err := archive.Diff(r, openReader(t, twin)); err != nil || d.Diverged {
				t.Fatalf("Diff against the twin in the current layout = %+v, %v", d, err)
			}

			writeArchive(t, dir, events[300:], opts)
			data := readFile(t, path)
			if bytes.Contains(data, []byte(`"index"`)) {
				t.Fatal("a reopened writer's seal kept the old index key")
			}
			if _, err := archive.ParseManifest(data); err != nil {
				t.Fatalf("a reopened writer's seal left the manifest in an older form: %v", err)
			}
			if got := readAll(t, dir); len(got) != len(events) {
				t.Fatalf("read %d records after the reopened writer's appends, want %d", len(got), len(events))
			}
			if err := checkScan(openReader(t, dir), events, archive.Query{SinceTick: int64(events[350].Time), UntilTick: -1}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestManifestSizePerSegment guards against a manifest that grows with the
// records it catalogs: archives of four segments of 64 and of 4096 records
// write manifests that differ only in the widths of their numbers, at most
// three more digits for each of a segment's five numbers and the total.
// Sealing and opening therefore cost O(segments).
func TestManifestSizePerSegment(t *testing.T) {
	size := func(records int) int {
		dir := t.TempDir()
		writeArchive(t, dir, genEvents(4*records), archive.Options{SegmentRecords: records})
		return len(readFile(t, filepath.Join(dir, "MANIFEST.json")))
	}
	small, large := size(64), size(4096)
	if large-small > 3*(4*5+1) {
		t.Fatalf("manifest of 4 segments: %d B at 64 records each, %d B at 4096", small, large)
	}
}

// TestStaleIndexBesideActiveSegment leaves an index file beside the active
// segment, as a writer killed after a seal's index write and before its
// manifest write does. The manifest does not name the segment, so readers
// never read that file, and the reopened writer replaces it at its next
// seal: neither returns anything the stale file says.
func TestStaleIndexBesideActiveSegment(t *testing.T) {
	events := genEvents(200)
	opts := archive.Options{SegmentRecords: 64, IndexEvery: 4}
	stales := map[string]func(dir string) []byte{
		"another segment's index": func(dir string) []byte { return readFile(t, filepath.Join(dir, "seg-000001.idx")) },
		"torn frame":              func(string) []byte { return []byte("deadbeef [{\"seq\":") },
	}
	for name, stale := range stales {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := archive.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events[:150] {
				s.Emit(e)
			}
			if err := s.Flush(); err != nil { // abandoned: 2 sealed segments, 22 records in the active one
				t.Fatal(err)
			}
			writeFile(t, filepath.Join(dir, "seg-000003.idx"), stale(dir))
			check := func(want []obs.Event) {
				t.Helper()
				r := openReader(t, dir)
				segs := r.Segments()
				for _, seg := range segs[1:] {
					for _, since := range []int64{seg.MinTick + 1, seg.MaxTick} {
						if err := checkScan(r, want, archive.Query{SinceTick: since, UntilTick: -1}); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, err := r.AsOf(-1, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ref := referenceAsOf(want, -1, 0); !reflect.DeepEqual(got, ref) {
					t.Fatal("AsOf diverges from reference")
				}
			}
			check(events[:150])
			writeArchive(t, dir, events[150:], opts) // seals segment 3 at 64 records
			check(events)
		})
	}
}

// TestReopenAppend closes an archive and reopens it for appending: seqs
// continue, nothing is lost.
func TestReopenAppend(t *testing.T) {
	events := genEvents(150)
	dir := t.TempDir()
	writeArchive(t, dir, events[:90], archive.Options{SegmentRecords: 40})
	writeArchive(t, dir, events[90:], archive.Options{SegmentRecords: 40})
	got := readAll(t, dir)
	if len(got) != len(events) {
		t.Fatalf("got %d events after reopen, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i].Seq != uint64(i+1) || got[i].Event != events[i] {
			t.Fatalf("record %d wrong after reopen append", i)
		}
	}
}

// TestTornTailRecovery simulates a crash mid-append: the abandoned active
// segment gets a torn half-frame, the reader ignores it, and a reopening
// writer truncates it before appending resumes.
func TestTornTailRecovery(t *testing.T) {
	events := genEvents(40)
	dir := t.TempDir()
	s, err := archive.Open(dir, archive.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Abandon the sink (no Close, no seal) and tear the active segment:
	// 2 sealed segments of 16 records, 8 recovered-tail records, then junk.
	active := filepath.Join(dir, "seg-000003.jsonl")
	f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"t\":12,\"ki"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got := readAll(t, dir)
	if len(got) != len(events) {
		t.Fatalf("reader saw %d records through the torn tail, want %d", len(got), len(events))
	}

	s2, err := archive.Open(dir, archive.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	extra := genEvents(5)
	for _, e := range extra {
		s2.Emit(e)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	got = readAll(t, dir)
	if len(got) != len(events)+len(extra) {
		t.Fatalf("got %d records after torn reopen, want %d", len(got), len(events)+len(extra))
	}
	for i, e := range append(append([]obs.Event(nil), events...), extra...) {
		if got[i].Seq != uint64(i+1) || got[i].Event != e {
			t.Fatalf("record %d wrong after torn-tail recovery", i)
		}
	}
}

// TestCorruptFrameIsAnError corrupts a complete frame of the active segment
// that has valid frames after it: the reader and a reopening writer both
// fail with the frame's byte offset instead of silently dropping — and
// truncating away — the later frames.
func TestCorruptFrameIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := archive.Open(dir, archive.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range genEvents(40) {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// 2 sealed segments of 16 records, then 8 records in the active one:
	// flip a digit of the third one's tick.
	active := filepath.Join(dir, "seg-000003.jsonl")
	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	off := len(lines[0]) + len(lines[1])
	data[off+bytes.Index(lines[2], []byte(`"t":`))+4] ^= 1
	if err := os.WriteFile(active, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("byte offset %d:", off)
	if _, err := archive.OpenReader(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenReader over a corrupt frame = %v, want an error at %s", err, want)
	}
	if _, err := archive.Open(dir, archive.Options{SegmentRecords: 16}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open over a corrupt frame = %v, want an error at %s", err, want)
	}
	if got, err := os.ReadFile(active); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("failed open changed the segment (%d bytes, %v), want it as written", len(got), err)
	}
}

// editManifest rewrites the manifest of the archive in dir through edit.
func editManifest(t *testing.T, dir string, edit func(m *archive.Manifest)) {
	t.Helper()
	path := filepath.Join(dir, "MANIFEST.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m archive.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRejectsBadCatalogs rewrites a sealed archive's manifest with
// one rule broken per case. OpenReader and a reopening Open both refuse
// each one: a manifest names only this archive's own segments, in order,
// as consecutive non-empty seq ranges, its record total is theirs, and at
// most one segment file follows the ones it lists.
// TestIndexFileRejectsBadEntries checks the sparse index entries.
func TestManifestRejectsBadCatalogs(t *testing.T) {
	events := genEvents(64)
	opts := archive.Options{SegmentRecords: 16, IndexEvery: 4}
	root := t.TempDir()
	writeArchive(t, filepath.Join(root, "victim"), events[:50], opts)
	cases := []struct {
		name string
		edit func(m *archive.Manifest)
	}{
		{"segment outside the archive", func(m *archive.Manifest) {
			m.Segments[0].Name = "../victim/seg-000001.jsonl"
		}},
		{"segments out of order", func(m *archive.Manifest) {
			m.Segments[0].Name, m.Segments[1].Name = m.Segments[1].Name, m.Segments[0].Name
		}},
		{"seq gap", func(m *archive.Manifest) { m.Segments[1].SeqStart++ }},
		{"empty segment", func(m *archive.Manifest) {
			m.Records -= m.Segments[3].Records
			m.Segments[3].Records = 0
		}},
		{"min tick above max tick", func(m *archive.Manifest) {
			m.Segments[2].MinTick, m.Segments[2].MaxTick = m.Segments[2].MaxTick, m.Segments[2].MinTick
		}},
		{"records not the segments' sum", func(m *archive.Manifest) { m.Records++ }},
		{"sealed segments left out", func(m *archive.Manifest) {
			m.Segments, m.Records = m.Segments[:2], 32
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(root, fmt.Sprint(i))
			writeArchive(t, dir, events, opts) // 4 sealed segments of 16 records
			editManifest(t, dir, tc.edit)
			if _, err := archive.OpenReader(dir); err == nil || !strings.Contains(err.Error(), "archive: manifest:") {
				t.Errorf("OpenReader = %v, want a manifest error", err)
			}
			if _, err := archive.Open(dir, opts); err == nil || !strings.Contains(err.Error(), "archive: manifest:") {
				t.Errorf("Open = %v, want a manifest error", err)
			}
		})
	}
}

// TestLongRecordRoundTrip archives records whose 10 KiB Detail outgrows a
// 4 KiB read buffer — in sealed segments and in the unsealed tail — and
// reads them back through every read path: Scan, AsOf, Diff, the tail an
// OpenReader recovers, and a reopened Sink's recovery.
func TestLongRecordRoundTrip(t *testing.T) {
	events := genEvents(60)
	long := strings.Repeat("0123456789", 1024)
	for _, i := range []int{5, 20, 37, 55} {
		rec := obs.Record{Time: int64(events[i].Time), Kind: "SCHEDULE_SWITCH",
			Detail: fmt.Sprintf("requested schedule %s-%d", long, i)}
		events[i] = rec.Event()
	}
	check := func(r *archive.Reader, want []obs.Event) {
		t.Helper()
		got, err := collect(r, archive.Query{UntilTick: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("read %d records, want %d", len(got), len(want))
		}
		for i, se := range got {
			if se.Seq != uint64(i+1) || se.Event != want[i] {
				t.Fatalf("record %d differs", i+1)
			}
		}
		for _, i := range []int{5, 20, 37, 55} {
			if i >= len(want) {
				continue
			}
			seq := uint64(i + 1)
			st, err := r.AsOf(int64(want[i].Time), seq)
			if err != nil {
				t.Fatal(err)
			}
			if ref := referenceAsOf(want, int64(want[i].Time), seq); !reflect.DeepEqual(st, ref) {
				t.Fatalf("AsOf at record %d diverges from reference", seq)
			}
			if st.Schedule != fmt.Sprintf("%s-%d", long, i) {
				t.Fatalf("AsOf at record %d: schedule of %d B", seq, len(st.Schedule))
			}
		}
	}

	// 2 sealed segments of 16 records, then an unsealed tail of 8.
	dir := t.TempDir()
	opts := archive.Options{SegmentRecords: 16}
	s, err := archive.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events[:40] {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(r, events[:40])

	// Abandon the sink; a reopened one must recover the whole tail.
	s2, err := archive.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Records; got != 40 {
		t.Fatalf("reopened sink recovered %d records, want 40", got)
	}
	for _, e := range events[40:] {
		s2.Emit(e)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(r, events)

	twin := t.TempDir()
	writeArchive(t, twin, events, opts)
	variant := append([]obs.Event(nil), events...)
	rec := obs.ToRecord(variant[37])
	rec.Detail += "!"
	variant[37] = rec.Event()
	other := t.TempDir()
	writeArchive(t, other, variant, opts)
	for _, tc := range []struct {
		dir     string
		diverge bool
	}{{twin, false}, {other, true}} {
		r2, err := archive.OpenReader(tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		d, err := archive.Diff(r, r2)
		if err != nil {
			t.Fatal(err)
		}
		if d.Diverged != tc.diverge || (tc.diverge && (d.Seq != 38 || d.B.Detail != rec.Detail)) {
			t.Fatalf("Diff = diverged %v at seq %d, want diverged %v (at seq 38)", d.Diverged, d.Seq, tc.diverge)
		}
	}
}

// TestDiff checks divergence localization: identical streams, a mid-stream
// mutation, and a strict prefix.
func TestDiff(t *testing.T) {
	base := genEvents(200)
	dir1, dir2 := t.TempDir(), t.TempDir()
	opts := archive.Options{SegmentRecords: 64}
	writeArchive(t, dir1, base, opts)
	writeArchive(t, dir2, base, opts)
	r1, err := archive.OpenReader(dir1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := archive.OpenReader(dir2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := archive.Diff(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Diverged {
		t.Fatalf("identical archives reported divergent: %+v", d)
	}

	// Mutate record 120 (0-based index 119).
	variant := append([]obs.Event(nil), base...)
	rec := obs.ToRecord(variant[119])
	rec.Detail = "mutated"
	variant[119] = rec.Event()
	dir3 := t.TempDir()
	writeArchive(t, dir3, variant, opts)
	r3, err := archive.OpenReader(dir3)
	if err != nil {
		t.Fatal(err)
	}
	d, err = archive.Diff(r1, r3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Diverged || d.Seq != 120 {
		t.Fatalf("divergence at seq %d (diverged=%v), want 120", d.Seq, d.Diverged)
	}
	if d.Tick != int64(base[119].Time) {
		t.Fatalf("divergence tick %d, want %d", d.Tick, int64(base[119].Time))
	}
	if d.A == nil || d.B == nil || d.B.Detail != "mutated" {
		t.Fatalf("divergence records wrong: %+v", d)
	}

	// Strict prefix: the shorter stream diverges just past its end.
	dir4 := t.TempDir()
	writeArchive(t, dir4, base[:50], opts)
	r4, err := archive.OpenReader(dir4)
	if err != nil {
		t.Fatal(err)
	}
	d, err = archive.Diff(r1, r4)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Diverged || d.Seq != 51 || d.B != nil || d.A == nil {
		t.Fatalf("prefix divergence wrong: %+v", d)
	}
	if d.Tick != int64(base[50].Time) {
		t.Fatalf("prefix divergence tick %d, want %d", d.Tick, int64(base[50].Time))
	}
}

// TestStats checks the writer's gauge accounting against the reader's view.
func TestStats(t *testing.T) {
	events := genEvents(100)
	dir := t.TempDir()
	s, err := archive.Open(dir, archive.Options{SegmentRecords: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s.Emit(e)
	}
	st := s.Stats()
	if st.Records != 100 {
		t.Fatalf("stats records %d, want 100", st.Records)
	}
	if st.Segments != 4 { // 3 sealed × 30 + active × 10
		t.Fatalf("stats segments %d, want 4", st.Segments)
	}
	if st.Bytes == 0 {
		t.Fatal("stats bytes zero")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var total int64
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range r.Segments() {
		total += seg.Bytes
	}
	if uint64(total) != st.Bytes {
		t.Fatalf("stats bytes %d, on-disk %d", st.Bytes, total)
	}
}

// TestHandler exercises the /archive/* query endpoints over a root with two
// runs.
func TestHandler(t *testing.T) {
	base := genEvents(150)
	variant := append([]obs.Event(nil), base[:100]...)
	rec := obs.ToRecord(base[100])
	rec.Code = "INJECTED"
	rec.Kind = "HM_REPORT"
	variant = append(variant, rec.Event())
	root := t.TempDir()
	writeArchive(t, filepath.Join(root, "run-a"), base, archive.Options{SegmentRecords: 64})
	writeArchive(t, filepath.Join(root, "run-b"), variant, archive.Options{SegmentRecords: 64})
	srv := httptest.NewServer(archive.Handler(root))
	defer srv.Close()

	get := func(path string) (*httptest.ResponseRecorder, []byte) {
		t.Helper()
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(res.Body); err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		rr.Code = res.StatusCode
		return rr, buf.Bytes()
	}

	rr, body := get("/archive/asof?run=run-a")
	if rr.Code != 200 {
		t.Fatalf("asof status %d: %s", rr.Code, body)
	}
	var st archive.State
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Events != 150 {
		t.Fatalf("asof folded %d events, want 150", st.Events)
	}

	rr, body = get("/archive/range?run=run-a&kind=HM_REPORT&limit=5")
	if rr.Code != 200 {
		t.Fatalf("range status %d: %s", rr.Code, body)
	}
	var rows []struct {
		Seq    uint64     `json:"seq"`
		Record obs.Record `json:"record"`
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 5 {
		t.Fatalf("range returned %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Record.Kind != "HM_REPORT" {
			t.Fatalf("kind filter leaked %q", row.Record.Kind)
		}
	}

	rr, body = get("/archive/diff?a=run-a&b=run-b")
	if rr.Code != 200 {
		t.Fatalf("diff status %d: %s", rr.Code, body)
	}
	var d archive.Divergence
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Diverged || d.Seq != 101 {
		t.Fatalf("diff endpoint: %+v", d)
	}

	rr, _ = get("/archive/asof?run=../escape")
	if rr.Code != 400 {
		t.Fatalf("path escape not rejected: status %d", rr.Code)
	}
	rr, _ = get("/archive/asof?run=missing")
	if rr.Code != 404 {
		t.Fatalf("missing run: status %d", rr.Code)
	}
}
