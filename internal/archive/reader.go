package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"air/internal/durable"
	"air/internal/obs"
)

// Reader opens an archive directory for queries. Sealed segments are taken
// from the manifest; any trailing unsealed segment is recovered read-only
// under the durable recovery rule (a torn tail is ignored, a corrupt
// complete frame is an error), so a reader can inspect the archive of a run
// that crashed — or one that is still being written, up to its last buffer
// flush.
type Reader struct {
	dir     string
	segs    []segmentInfo
	records uint64 // total addressable records
}

type segmentInfo struct {
	meta   SegmentMeta
	sealed bool
}

// OpenReader opens dir for queries.
func OpenReader(dir string) (*Reader, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{dir: dir}
	seq := uint64(1)
	for _, seg := range m.Segments {
		if seg.SeqStart != seq {
			return nil, fmt.Errorf("archive: manifest: segment %s starts at seq %d, want %d", seg.Name, seg.SeqStart, seq)
		}
		if _, err := os.Stat(filepath.Join(dir, seg.Name)); err != nil {
			return nil, fmt.Errorf("archive: sealed segment missing: %w", err)
		}
		r.segs = append(r.segs, segmentInfo{meta: seg, sealed: true})
		seq += seg.Records
	}
	r.records = m.Records
	// Recover the unsealed tail segment, if any.
	tail, err := scanSegment(dir, len(m.Segments)+1, seq)
	if err != nil {
		return nil, err
	}
	if tail != nil {
		r.segs = append(r.segs, *tail)
		r.records += tail.meta.Records
	}
	return r, nil
}

// scanSegment validates the post-manifest segment by frame, deriving the
// metadata the manifest would have held. Returns nil when the file does not
// exist or holds no valid record.
func scanSegment(dir string, num int, seqStart uint64) (*segmentInfo, error) {
	f, err := os.Open(filepath.Join(dir, segmentName(num)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("archive: open segment: %w", err)
	}
	defer f.Close()
	meta := SegmentMeta{Name: segmentName(num), SeqStart: seqStart}
	meta.Bytes, err = durable.Walk(f, func(payload []byte, _ int64) error {
		e, err := obs.ParseRecord(payload)
		if err != nil {
			return err
		}
		if meta.Records == 0 {
			meta.MinTick = int64(e.Time)
		}
		meta.MaxTick = int64(e.Time)
		meta.Records++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("archive: scan segment %s: %w", meta.Name, err)
	}
	if meta.Records == 0 {
		return nil, nil
	}
	return &segmentInfo{meta: meta}, nil
}

// Records returns the total number of addressable records (the archive's
// latest transaction seq).
func (r *Reader) Records() uint64 { return r.records }

// Segments returns the catalog the reader resolved: sealed segments plus the
// recovered tail.
func (r *Reader) Segments() []SegmentMeta {
	out := make([]SegmentMeta, len(r.segs))
	for i, s := range r.segs {
		out[i] = s.meta
	}
	return out
}

// Query selects records by both time axes and by kind.
type Query struct {
	// SinceTick/UntilTick bound valid time inclusively; UntilTick < 0 means
	// unbounded above (InTickRange is the shared predicate).
	SinceTick int64
	UntilTick int64
	// MaxSeq bounds transaction time: only records with seq <= MaxSeq
	// qualify. 0 means unbounded — "as of now".
	MaxSeq uint64
	// Kinds restricts the scan to the listed kinds; empty admits all.
	Kinds []obs.Kind
}

func (q Query) admitsKind(k obs.Kind) bool {
	if len(q.Kinds) == 0 {
		return true
	}
	for _, want := range q.Kinds {
		if k == want {
			return true
		}
	}
	return false
}

// Scan streams qualifying records in transaction order, calling fn with each
// record's seq and event. Valid time is nondecreasing across the stream, so
// the scan seeks past whole segments (and, via the sparse tick index, into
// the middle of one) to reach SinceTick, and stops at the first record past
// UntilTick or MaxSeq.
func (r *Reader) Scan(q Query, fn func(seq uint64, e obs.Event) error) error {
	lr := durable.NewLineReader(nil) // one pair of buffers for every segment
	for _, seg := range r.segs {
		if q.MaxSeq > 0 && seg.meta.SeqStart > q.MaxSeq {
			return nil
		}
		if q.UntilTick >= 0 && seg.meta.MinTick > q.UntilTick {
			return nil // ticks only grow from here
		}
		if seg.meta.MaxTick < q.SinceTick {
			continue // whole segment precedes the window
		}
		if err := r.scanOne(seg, q, lr, fn); err != nil {
			if errors.Is(err, errStop) {
				return nil
			}
			return err
		}
	}
	return nil
}

// errStop terminates a scan early from inside a segment.
var errStop = errors.New("archive: stop scan")

func (r *Reader) scanOne(seg segmentInfo, q Query, lr *durable.LineReader, fn func(seq uint64, e obs.Event) error) error {
	f, err := os.Open(filepath.Join(r.dir, seg.meta.Name))
	if err != nil {
		return fmt.Errorf("archive: scan: %w", err)
	}
	defer f.Close()
	seq := seg.meta.SeqStart
	// Seek via the sparse index: every record before an entry has a tick no
	// later than the entry's, so starting at the last entry whose tick is
	// below SinceTick skips only records outside the window.
	if q.SinceTick > seg.meta.MinTick && len(seg.meta.Index) > 0 {
		i := sort.Search(len(seg.meta.Index), func(i int) bool {
			return seg.meta.Index[i].Tick >= q.SinceTick
		})
		if i > 0 {
			ent := seg.meta.Index[i-1]
			if _, err := f.Seek(ent.Offset, 0); err != nil {
				return fmt.Errorf("archive: scan: %w", err)
			}
			seq = ent.Seq
		}
	}
	lr.Reset(f)
	for {
		if q.MaxSeq > 0 && seq > q.MaxSeq {
			return errStop
		}
		line, err := lr.Line()
		if err != nil {
			if seg.sealed && (len(line) > 0 || seq != seg.meta.SeqStart+seg.meta.Records) {
				return fmt.Errorf("archive: segment %s truncated at seq %d", seg.meta.Name, seq)
			}
			return nil // end of segment (or recovered tail boundary)
		}
		e, ferr := decodeFrame(line[:len(line)-1])
		if ferr != nil {
			return fmt.Errorf("archive: segment %s seq %d: %w", seg.meta.Name, seq, ferr)
		}
		if seq > seg.meta.SeqStart+seg.meta.Records-1 {
			return nil // recovered tail: past the validated prefix
		}
		if q.UntilTick >= 0 && int64(e.Time) > q.UntilTick {
			return errStop
		}
		if int64(e.Time) >= q.SinceTick && q.admitsKind(e.Kind) {
			if err := fn(seq, e); err != nil {
				return err
			}
		}
		seq++
	}
}

// Events collects a scan into a slice of (seq, event) pairs.
func (r *Reader) Events(q Query) ([]SeqEvent, error) {
	var out []SeqEvent
	err := r.Scan(q, func(seq uint64, e obs.Event) error {
		out = append(out, SeqEvent{Seq: seq, Event: e})
		return nil
	})
	return out, err
}

// SeqEvent pairs a record with its transaction seq.
type SeqEvent struct {
	Seq   uint64
	Event obs.Event
}

// HMEntry is the reconstructed Health Monitor belief about one partition:
// the last report it filed and how many it has filed in total.
type HMEntry struct {
	Code    string `json:"code,omitempty"`
	Level   string `json:"level,omitempty"`
	Action  string `json:"action,omitempty"`
	Tick    int64  `json:"t"`
	Reports uint64 `json:"reports"`
}

// State is the bitemporal as-of reconstruction: what the observability spine
// implied about the module at valid time AsOfTick, knowing only the records
// up to transaction seq AsOfSeq.
type State struct {
	AsOfTick int64  `json:"asOfTick"`
	AsOfSeq  uint64 `json:"asOfSeq"`
	// Events is the number of records folded; LastTick/LastSeq locate the
	// last one.
	Events   uint64 `json:"events"`
	LastTick int64  `json:"lastTick,omitempty"`
	LastSeq  uint64 `json:"lastSeq,omitempty"`
	// Schedule is the most recently requested module schedule ("" until the
	// first SCHEDULE_SWITCH request).
	Schedule string `json:"schedule,omitempty"`
	// Degraded is set between SCHEDULE_DEGRADE and SCHEDULE_RESTORE.
	Degraded bool `json:"degraded,omitempty"`
	// HM maps partition name → reconstructed Health Monitor table row.
	HM map[string]HMEntry `json:"hm,omitempty"`
	// Quarantined lists partitions inside a QUARANTINE_ENTER/EXIT bracket,
	// sorted.
	Quarantined []string `json:"quarantined,omitempty"`
}

// fold accumulates one event into the state. The kinds folded here define
// the as-of semantics: HM table from HM_REPORT, schedule mode from
// SCHEDULE_SWITCH/DEGRADE/RESTORE, quarantine set from the recovery
// brackets.
func (s *State) fold(seq uint64, e obs.Event, quarantined map[string]bool) {
	s.Events++
	s.LastTick, s.LastSeq = int64(e.Time), seq
	switch e.Kind {
	case obs.KindScheduleSwitch:
		s.Schedule = scheduleName(e.Detail)
	case obs.KindScheduleDegrade:
		s.Degraded = true
		s.Schedule = scheduleName(e.Detail)
	case obs.KindScheduleRestore:
		s.Degraded = false
		s.Schedule = scheduleName(e.Detail)
	case obs.KindHMReport:
		ent := s.HM[string(e.Partition)]
		ent.Code, ent.Level, ent.Action = e.Code, e.Level, e.Action
		ent.Tick = int64(e.Time)
		ent.Reports++
		if s.HM == nil {
			s.HM = map[string]HMEntry{}
		}
		s.HM[string(e.Partition)] = ent
	case obs.KindQuarantineEnter:
		quarantined[string(e.Partition)] = true
	case obs.KindQuarantineExit:
		delete(quarantined, string(e.Partition))
	}
}

// scheduleName recovers the target schedule from a schedule event's detail
// line ("requested schedule chi2", "degraded to schedule safe"): the last
// space-separated word, mirroring the timeline analyzer's parser.
func scheduleName(detail string) string {
	if i := strings.LastIndexByte(detail, ' '); i >= 0 {
		return detail[i+1:]
	}
	return ""
}

// AsOf reconstructs the module state at valid time asOfTick as known by
// transaction seq asOfSeq (0 = as of the latest record): a fold over every
// record with Time <= asOfTick and seq <= asOfSeq. This is the bitemporal
// query — rewinding asOfSeq answers "what did we believe before record R
// arrived?", rewinding asOfTick answers "what had happened by tick T?".
func (r *Reader) AsOf(asOfTick int64, asOfSeq uint64) (State, error) {
	st := State{AsOfTick: asOfTick, AsOfSeq: asOfSeq}
	quarantined := map[string]bool{}
	err := r.Scan(Query{UntilTick: asOfTick, MaxSeq: asOfSeq}, func(seq uint64, e obs.Event) error {
		st.fold(seq, e, quarantined)
		return nil
	})
	if err != nil {
		return st, err
	}
	for p := range quarantined { //air:allow(maprange): collected into a slice and sorted below
		st.Quarantined = append(st.Quarantined, p)
	}
	sort.Strings(st.Quarantined)
	return st, nil
}

// Divergence reports where two runs' histories split.
type Divergence struct {
	// Diverged is false when one stream is a prefix of the other and both
	// agree on every shared record — including the identical-stream case.
	Diverged bool `json:"diverged"`
	// Seq is the first transaction seq at which the runs disagree (or the
	// seq just past the shorter stream when one is a strict prefix).
	Seq uint64 `json:"seq,omitempty"`
	// Tick localizes the divergence in valid time: the earliest tick
	// mentioned by either run's first differing record.
	Tick int64 `json:"t,omitempty"`
	// A/B are the first differing records (nil past a stream's end).
	A *obs.Record `json:"a,omitempty"`
	B *obs.Record `json:"b,omitempty"`
	// RecordsA/RecordsB are the streams' total lengths.
	RecordsA uint64 `json:"recordsA"`
	RecordsB uint64 `json:"recordsB"`
}

// Diff walks two archives in lockstep transaction order and localizes the
// first divergence: the first seq whose records differ, and the valid-time
// tick that divergence speaks about. For a fault variant diffed against its
// fault-free twin this is the tick the injected fault first became
// observable on the spine.
func Diff(a, b *Reader) (Divergence, error) {
	d := Divergence{RecordsA: a.Records(), RecordsB: b.Records()}
	ca, err := a.cursor()
	if err != nil {
		return d, err
	}
	defer ca.close()
	cb, err := b.cursor()
	if err != nil {
		return d, err
	}
	defer cb.close()
	for seq := uint64(1); ; seq++ {
		ea, okA, err := ca.next()
		if err != nil {
			return d, err
		}
		eb, okB, err := cb.next()
		if err != nil {
			return d, err
		}
		switch {
		case !okA && !okB:
			return d, nil // identical
		case okA && okB && ea == eb:
			continue
		}
		d.Diverged = true
		d.Seq = seq
		if okA {
			ra := obs.ToRecord(ea)
			d.A = &ra
			d.Tick = ra.Time
		}
		if okB {
			rb := obs.ToRecord(eb)
			d.B = &rb
			if d.A == nil || rb.Time < d.Tick {
				d.Tick = rb.Time
			}
		}
		return d, nil
	}
}

// cursor is a pull iterator over an archive's record stream.
type cursor struct {
	r      *Reader
	segIdx int
	left   uint64 // records remaining in the open segment
	f      *os.File
	lr     *durable.LineReader
}

func (r *Reader) cursor() (*cursor, error) {
	return &cursor{r: r, lr: durable.NewLineReader(nil)}, nil
}

func (c *cursor) next() (obs.Event, bool, error) {
	var zero obs.Event
	for {
		if c.f == nil {
			if c.segIdx >= len(c.r.segs) {
				return zero, false, nil
			}
			seg := c.r.segs[c.segIdx]
			f, err := os.Open(filepath.Join(c.r.dir, seg.meta.Name))
			if err != nil {
				return zero, false, fmt.Errorf("archive: diff: %w", err)
			}
			c.lr.Reset(f)
			c.f, c.left = f, seg.meta.Records
		}
		if c.left == 0 {
			c.close()
			c.segIdx++
			continue
		}
		line, err := c.lr.Line()
		if err != nil {
			return zero, false, fmt.Errorf("archive: diff: segment %s: %w", c.r.segs[c.segIdx].meta.Name, err)
		}
		e, ferr := decodeFrame(line[:len(line)-1])
		if ferr != nil {
			return zero, false, fmt.Errorf("archive: diff: segment %s: %w", c.r.segs[c.segIdx].meta.Name, ferr)
		}
		c.left--
		return e, true, nil
	}
}

func (c *cursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}
