package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"air/internal/obs"
	"air/internal/timeline"
	"air/internal/wire"
)

// encodeObservation is AppendObservation's document for o.
func encodeObservation(o *Observation) ([]byte, error) {
	e := wire.NewEncoder(nil)
	AppendObservation(e, o)
	return e.Bytes()
}

// decodeObservation is ParseObservation over a whole document.
func decodeObservation(b []byte) (Observation, error) {
	var o Observation
	p := wire.NewParser(b)
	ParseObservation(&p, &o)
	return o, p.Finish()
}

// TestObservationCodecMatchesJSON: for every observation of a 512-run
// default-matrix campaign, AppendObservation writes json.Marshal's bytes,
// and ParseObservation reads them back to the observation, as
// json.Unmarshal does. A shard in either form encodes the same way.
func TestObservationCodecMatchesJSON(t *testing.T) {
	res, err := Run(Spec{Runs: 512, Seed: 1, MTFs: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Observations {
		o := res.Observations[i]
		o.WallNanos = 0 // not serialized
		want, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeObservation(&o)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("run %d: AppendObservation = %s, %v\nencoding/json writes %s", o.Run, got, err, want)
		}
		back, err := decodeObservation(got)
		if err != nil {
			t.Fatalf("run %d: ParseObservation: %v", o.Run, err)
		}
		var ref Observation
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, o) || !reflect.DeepEqual(back, ref) {
			t.Fatalf("run %d: ParseObservation read back\n%+v\nwant\n%+v", o.Run, back, o)
		}
	}
	agg := Fold(res.Observations[:64])
	for _, sh := range []*Shard{
		{Start: 0, End: 64, Observations: res.Observations[:64]},
		{Start: 0, End: 64, Aggregate: &agg},
		{Start: 3, End: 3},
	} {
		want, err := json.Marshal(sh)
		if err != nil {
			t.Fatal(err)
		}
		e := wire.NewEncoder(nil)
		AppendShard(e, sh)
		if got, err := e.Bytes(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendShard = %.200s, %v\nencoding/json writes %.200s", got, err, want)
		}
		var back, ref Shard
		p := wire.NewParser(want)
		ParseShard(&p, &back)
		if err := p.Finish(); err != nil {
			t.Fatalf("ParseShard: %v", err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatal("ParseShard differs from encoding/json")
		}
	}
}

// TestResultJSONMatchesMarshalIndent: Result.JSON writes the bytes of
// json.MarshalIndent(r, "", "  ") and a newline, for a default-matrix
// campaign and for results whose slices are nil, empty or one long, and it
// fails where MarshalIndent fails.
func TestResultJSONMatchesMarshalIndent(t *testing.T) {
	res, err := Run(Spec{Runs: 64, Seed: 1, MTFs: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{
		res,
		{},
		{Scenarios: []string{}, Observations: []Observation{}},
		{Seed: 9, Scenarios: res.Scenarios[:1], Observations: res.Observations[:1]},
	} {
		want, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Fatalf("JSON differs from MarshalIndent at byte %d of %d: %.80q, want %.80q", n, len(want), got[n:], want[n:])
		}
	}
	nan := &Result{Aggregate: Aggregate{MTTRMean: math.NaN()}}
	if _, err := json.MarshalIndent(nan, "", "  "); err == nil {
		t.Fatal("MarshalIndent of a NaN mean: no error")
	}
	if _, err := nan.JSON(); err == nil {
		t.Fatal("JSON of a NaN mean: no error")
	}
}

// TestFoldLeavesObservationsUnchanged: folding and merging accumulate in
// place but never into the observations or partials they read — retained
// observations go into a campaign's result as they arrived.
func TestFoldLeavesObservationsUnchanged(t *testing.T) {
	res, err := Run(Spec{Runs: 16, Seed: 7, MTFs: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(res.Observations)
	if err != nil {
		t.Fatal(err)
	}
	first, second := Fold(res.Observations[:8]), Fold(res.Observations[8:])
	firstJSON, secondJSON := aggJSON(t, first), aggJSON(t, second)
	merged := NewAggregate()
	merged.Merge(first)
	merged.Merge(second)
	for _, o := range res.Observations {
		merged.Fold(o) // grows every shared row and bucket further
	}
	after, err := json.Marshal(res.Observations)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("folding changed the observations it read")
	}
	if !bytes.Equal(firstJSON, aggJSON(t, first)) || !bytes.Equal(secondJSON, aggJSON(t, second)) {
		t.Fatal("merging changed the partials it read")
	}
}

// FuzzObservationCodec mutates the field values of a real observation —
// strings with escapes, HTML and invalid UTF-8; integers; floats on both
// sides of encoding/json's exponent cut-offs; nil against empty maps and
// slices — and checks AppendObservation against json.Marshal, and
// ParseObservation against json.Unmarshal of the same bytes.
func FuzzObservationCodec(f *testing.F) {
	res, err := Run(Spec{Runs: 4, Seed: 3, MTFs: 3, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	var base Observation
	for _, o := range res.Observations {
		if len(o.Faults) > 0 && len(o.Timeline.Processes) > 0 && len(o.Timeline.Partitions) > 0 {
			base = o
		}
	}
	if base.Faults == nil {
		f.Fatal("no faulted observation to mutate")
	}
	f.Add("P1", int64(7), uint64(3), 0.5, uint16(0))
	f.Add("<a&b> \xff\"\\\n", int64(-1), uint64(math.MaxUint64), 1e-6, uint16(0x5555))
	f.Add("é 漢\x00", int64(math.MinInt64), uint64(0), 9.999999999999999e-7, uint16(0xaaaa))
	f.Add("", int64(math.MaxInt64), uint64(1), 1e21, uint16(0xffff))
	f.Add("x", int64(0), uint64(2), 9.999999999999999e20, uint16(0x0f0f))
	f.Add("y", int64(1), uint64(4), math.Inf(1), uint16(1))
	f.Fuzz(func(t *testing.T, s string, i int64, u uint64, fl float64, bits uint16) {
		o := mutate(base, s, i, u, fl, bits)
		want, wantErr := json.Marshal(o)
		got, err := encodeObservation(&o)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendObservation error %v, encoding/json's %v", err, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendObservation:\n got %s\nwant %s", got, want)
		}
		back, err := decodeObservation(got)
		if err != nil {
			t.Fatalf("ParseObservation(%s): %v", got, err)
		}
		var ref Observation
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("ParseObservation:\n got %+v\nwant %+v", back, ref)
		}
	})
}

// mutate returns a deep copy of base with the fuzzer's values written into
// its fields and bits choosing nil or empty maps and slices.
func mutate(base Observation, s string, i int64, u uint64, fl float64, bits uint16) Observation {
	var o Observation
	if data, err := json.Marshal(base); err != nil || json.Unmarshal(data, &o) != nil {
		panic("observation does not round-trip through encoding/json")
	}
	bit := func(n uint) bool { return bits&(1<<n) != 0 }
	o.Run, o.Ticks, o.Seed = int(i), i, u
	o.Scenario, o.Error = s, s
	o.Halted, o.Degraded, o.Contained = bit(0), bit(1), bit(2)
	o.DetectionLatencySum, o.MTTRMax, o.Recoveries = i, -i, int(u)
	o.Faults[0].Kind, o.Faults[0].Partition, o.Faults[0].Magnitude = s, s, i
	o.HMByLevel[s] = int(i)
	o.Metrics.Events = u
	o.Metrics.DetectionLatency.Mean = fl
	o.Metrics.WindowGap.Buckets = append(o.Metrics.WindowGap.Buckets, u)
	o.Timeline.Schedule = s
	o.Timeline.Response.Mean = -fl
	o.Timeline.Partitions[0].Partition, o.Timeline.Partitions[0].Utilization = s, fl
	o.Timeline.Processes[0].Process, o.Timeline.Processes[0].Misses = s, u
	switch {
	case bit(3):
		o.Faults = nil
	case bit(4):
		o.Faults = []FaultDraw{}
	}
	switch {
	case bit(5):
		o.HMByCode = nil
	case bit(6):
		o.HMByCode = map[string]int{}
	}
	switch {
	case bit(7):
		o.Metrics.Counts = nil
	case bit(8):
		o.Metrics.Counts = map[string]uint64{}
	default:
		if o.Metrics.Counts == nil {
			o.Metrics.Counts = map[string]uint64{}
		}
		o.Metrics.Counts[s] = u
	}
	switch {
	case bit(9):
		o.Timeline.Partitions = nil
	case bit(10):
		o.Timeline.Partitions = []timeline.PartSnap{}
	}
	switch {
	case bit(11):
		o.Timeline.Processes = nil
	case bit(12):
		o.Timeline.Jitter.Buckets = []uint64{}
	}
	if bit(13) {
		o.Timeline.Archive = &timeline.ArchiveSnap{Segments: u, Records: uint64(i)}
	}
	if bit(14) {
		o.Metrics = obs.Snapshot{}
	}
	return o
}
