package main

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"air/internal/archive"
	"air/internal/hm"
	"air/internal/obs"
	"air/internal/tick"
	"air/internal/workload"
)

// The read mix follows the archive's forensic use: per AsOf
// reconstruction, scansPerAsOf one-MTF scans; one lockstep Diff when a
// round's reads begin and then every diffEvery AsOf calls. The
// write-then-read cycle repeats archiveRounds times, so the write phases
// that give sim_ticks_per_s are spread over the whole measured window.
const (
	scansPerAsOf  = 7
	diffEvery     = 60
	archiveRounds = 6
)

// runFlightArchive writes two archived runs of the airsim path — A with the
// Sect. 6 fault, B with A's fault plus a memory violation on P2 at a seeded
// phase — then reads both back, round after round. The write phases give
// sim_ticks_per_s; set-up is opening the two readers; an op is one
// AsOf(t, 0) at a seeded MTF boundary. A write-path gain that costs reads,
// or the reverse, shows here and on no other workload.
func runFlightArchive(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{}
	sz := cfg.size
	root, err := os.MkdirTemp("", "bench-archive-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	phase := tick.Ticks(sz.phaseLo+rng.Intn(sz.phaseHi-sz.phaseLo+1))*mtfTicks + tick.Ticks(rng.Intn(int(mtfTicks)))

	var ticks []int64
	var durs []time.Duration
	start := time.Now()
	for round := 1; round <= archiveRounds; round++ {
		dir := filepath.Join(root, fmt.Sprint(round))
		a := &archivedRun{dir: filepath.Join(dir, "A"), faults: []workload.FaultSpec{sect6Fault}}
		b := &archivedRun{dir: filepath.Join(dir, "B"), faults: []workload.FaultSpec{sect6Fault,
			{Kind: workload.FaultMemoryViolation, Partition: "P2", Phase: phase}}}
		for _, r := range []*archivedRun{a, b} {
			if err := r.write(cfg, tr, &ticks, &durs); err != nil {
				return nil, err
			}
			o.attempted += sz.archiveMTFs
		}
		for i := 0; i < sz.setups; i++ {
			sp := tr.start("archive.setup", nil)
			a.reader, err = openReader(a.dir, tr, &sp)
			if err == nil {
				b.reader, err = openReader(b.dir, tr, &sp)
			}
			o.setup = append(o.setup, tr.end(sp))
			if err != nil {
				return nil, err
			}
		}
		until := start.Add(cfg.budget * time.Duration(round) / archiveRounds)
		if err := readArchives(a, b, phase, until, cfg, rng, tr, o); err != nil {
			return nil, err
		}
		if round == archiveRounds {
			// AsOf at the last tick must agree with the live Health Monitor.
			for _, r := range []*archivedRun{a, b} {
				st, err := r.reader.AsOf(r.lastTick, 0)
				if err != nil {
					return nil, err
				}
				got := map[string]uint64{}
				for p, e := range st.HM {
					got[p] = e.Reports
				}
				o.check(maps.Equal(got, r.hm), 1, "%s: AsOf(%d) HM reports %v, live %v", filepath.Base(r.dir), r.lastTick, got, r.hm)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	o.tput = slicedThroughput(ticks, durs, 30)
	return o, nil
}

// readArchives issues the read mix against runs a and b until the deadline
// (at least one round of it).
func readArchives(a, b *archivedRun, phase tick.Ticks, until time.Time, cfg config, rng *rand.Rand, tr *tracer, o *outcome) error {
	mtf := int64(mtfTicks)
	for n := 0; n == 0 || time.Now().Before(until); n++ {
		if n%diffEvery == 0 {
			if err := diffRuns(a, b, phase, tr, o); err != nil {
				return err
			}
		}
		r := a
		if n%2 == 1 {
			r = b
		}
		k := 1 + rng.Intn(cfg.size.archiveMTFs)
		op := tr.start("archive.asof", nil)
		st, err := r.reader.AsOf(int64(k)*mtf, 0)
		d := tr.end(op)
		if err != nil {
			return err
		}
		o.ops = append(o.ops, d)
		o.attempted++
		tr.sampleMs("archive.asof_ms", d)
		tr.sample("archive.asof_records", float64(st.Events))
		o.check(st.Events == r.records[k-1], 1, "%s AsOf(%d) folded %d records; the live run had appended %d",
			filepath.Base(r.dir), int64(k)*mtf, st.Events, r.records[k-1])
		for j := 0; j < scansPerAsOf; j++ {
			k := 1 + rng.Intn(cfg.size.archiveMTFs)
			sp := tr.start("archive.scan", nil)
			var n uint64
			err := r.reader.Scan(archive.Query{SinceTick: int64(k-1)*mtf + 1, UntilTick: int64(k) * mtf,
				Kinds: []obs.Kind{obs.KindDeadlineMiss}}, func(uint64, obs.Event) error { n++; return nil })
			tr.sampleMs("archive.scan_ms", tr.end(sp))
			if err != nil {
				return err
			}
			o.attempted++
			want := r.misses[k-1]
			if k > 1 {
				want -= r.misses[k-2]
			}
			o.check(n == want, 1, "%s MTF %d: scan found %d deadline misses, the live run detected %d", filepath.Base(r.dir), k, n, want)
		}
	}
	return nil
}

// errTruncatedHMLog reports a run too long for the per-partition HM oracle:
// the monitor's log keeps only the latest hm.DefaultMaxLog reports.
var errTruncatedHMLog = errors.New("HM log reached its retention bound")

// diffRuns diffs A against B. Every Diff, in every round, must return the
// same result, and it must localize the divergence at or after B's fault
// phase.
func diffRuns(a, b *archivedRun, phase tick.Ticks, tr *tracer, o *outcome) error {
	sp := tr.start("archive.diff", nil)
	d, err := archive.Diff(a.reader, b.reader)
	tr.sample("archive.diff_s", tr.end(sp).Seconds())
	if err != nil {
		return err
	}
	tr.sample("archive.diff_records", float64(d.Seq))
	o.attempted++
	dg := digestJSON(d)
	if o.digest == "" {
		o.digest = dg
	}
	o.check(dg == o.digest, 1, "Diff digest %s, first %s", dg, o.digest)
	o.check(d.Diverged && d.Tick >= int64(phase), 1, "Diff: diverged=%v at tick %d, want a divergence at or after B's fault phase %d", d.Diverged, d.Tick, phase)
	return nil
}

// archivedRun is one archived simulation and what the live run observed.
type archivedRun struct {
	dir      string
	faults   []workload.FaultSpec
	records  []uint64          // records appended by the end of each MTF
	misses   []uint64          // deadline misses detected by the end of each MTF
	hm       map[string]uint64 // HM reports per partition
	lastTick int64
	reader   *archive.Reader
}

// write simulates the run with the timeline analyzer and an archive sink
// attached, one MTF per timed op.
func (r *archivedRun) write(cfg config, tr *tracer, ticks *[]int64, durs *[]time.Duration) error {
	sink, err := archive.Open(r.dir, archive.Options{})
	if err != nil {
		return err
	}
	m, _, err := buildModule(workload.Options{Faults: r.faults}, false, tr, nil, tr.wrap("archive", sink))
	if err != nil {
		sink.Close()
		return err
	}
	defer m.Shutdown()
	for k := 1; k <= cfg.size.archiveMTFs; k++ {
		op := tr.start("archive.write_mtf", nil)
		err := advance(m, mtfTicks, tr, &op)
		d := tr.endOp(op)
		if err != nil {
			sink.Close()
			return err
		}
		tr.sampleMs("core.run_mtf_ms", d)
		*ticks = append(*ticks, int64(mtfTicks))
		*durs = append(*durs, d)
		r.records = append(r.records, sink.Stats().Records)
		r.misses = append(r.misses, m.Bus().Metrics().Count(obs.KindDeadlineMiss))
	}
	r.lastTick = int64(m.Now())
	events := m.Health().Events()
	if len(events) >= hm.DefaultMaxLog {
		sink.Close()
		return errTruncatedHMLog
	}
	r.hm = map[string]uint64{}
	for _, e := range events {
		r.hm[string(e.Partition)]++
	}
	tr.sample("obs.events", float64(m.Metrics().Events))
	tr.sample("obs.ticks", float64(m.Now()))

	sp := tr.start("archive.close", nil)
	err = sink.Close()
	tr.sampleMs("archive.close_ms", tr.end(sp))
	if err != nil {
		return err
	}
	st := sink.Stats()
	tr.sample("archive.records_per_mtf", float64(st.Records)/float64(cfg.size.archiveMTFs))
	tr.sample("archive.bytes_per_record", float64(st.Bytes)/float64(st.Records))
	tr.sample("archive.segments", float64(st.Segments))
	sp = tr.start("core.shutdown", nil)
	m.Shutdown()
	tr.sampleMs("core.shutdown_ms", tr.end(sp))
	return nil
}

func openReader(dir string, tr *tracer, parent *spanRef) (*archive.Reader, error) {
	sp := tr.start("archive.open_reader", parent)
	r, err := archive.OpenReader(dir)
	tr.sampleMs("archive.open_reader_ms", tr.end(sp))
	return r, err
}
