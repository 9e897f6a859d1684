package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"air/internal/durable"
	"air/internal/obs"
	"air/internal/wire"
)

// checkpointEvery is the fold checkpoint stride: AsOf records its state
// before every record whose seq − 1 is a positive multiple of it. It is the
// sparse index's default stride, so a warm cut decodes at most 63 records.
const checkpointEvery = 64

// Reader opens an archive directory for queries. Sealed segments are taken
// from the manifest; any trailing unsealed segment is recovered read-only
// under the durable recovery rule (a torn tail is ignored, a corrupt
// complete frame is an error), so a reader can inspect the archive of a run
// that crashed — or one that is still being written, up to its last buffer
// flush.
//
// A Reader is a snapshot. OpenReader fixes the segment list and the
// recovered tail's length, so records appended later stay unseen. A sealed
// segment's sparse index is read from its index file when a scan first
// seeks into the segment, and kept. AsOf keeps fold checkpoints: every 64
// records, the fold's state, taken only once this Reader has itself
// verified every earlier frame. A cut resumes from the last checkpoint
// inside it, so frames folded into a checkpoint are not re-read, and a
// later change to one goes unseen by the cuts past it. The 828 checkpoints
// of a 53k-record archive retain about 238 KB. A Reader is safe for
// concurrent use.
type Reader struct {
	dir     string
	segs    []segmentInfo
	records uint64 // total addressable records

	mu    sync.Mutex
	ckpts []checkpoint         // ckpts[i] is the fold before seq (i+1)*checkpointEvery+1
	index map[int][]IndexEntry // sealed segment i's sparse index, once loaded
	ends  map[int]bool         // sealed segment i's last frame carries its MaxTick
}

type segmentInfo struct {
	meta   SegmentMeta
	sealed bool
}

// pos locates a frame: the segment's index, the frame's byte offset within
// it and the frame's seq.
type pos struct {
	seg int
	off int64
	seq uint64
}

// OpenReader opens dir for queries.
func OpenReader(dir string) (*Reader, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{dir: dir, records: m.Records, index: map[int][]IndexEntry{}, ends: map[int]bool{}}
	for _, seg := range m.Segments {
		if _, err := os.Stat(filepath.Join(dir, seg.Name)); err != nil {
			return nil, fmt.Errorf("archive: sealed segment missing: %w", err)
		}
		r.segs = append(r.segs, segmentInfo{meta: seg, sealed: true})
	}
	// Recover the unsealed tail segment, if any.
	tail, err := scanSegment(dir, len(m.Segments)+1, m.Records+1)
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
		t := int64(e.Time)
		if meta.Records == 0 {
			meta.MinTick, meta.MaxTick = t, t
		}
		meta.MinTick, meta.MaxTick = min(meta.MinTick, t), max(meta.MaxTick, t)
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
// UntilTick or MaxSeq. Passing segments over trusts no tick bound the
// manifest states unchecked (checkPassed).
func (r *Reader) Scan(q Query, fn func(seq uint64, e obs.Event) error) error {
	return r.scan(pos{}, q, fn, nil)
}

// lineReaders recycles scan buffers, so a warm AsOf, which reads a few KB,
// does not allocate and clear a fresh 4 KiB buffer per call.
var lineReaders = sync.Pool{New: func() any { return durable.NewLineReader(nil) }}

// errStop terminates a scan early from inside a segment.
var errStop = errors.New("archive: stop scan")

// scan is the one walk of the record stream, shared by Scan and AsOf. It
// enters each segment where the sparse index seeks it, or at from when that
// frame lies further on (the zero pos starts at the archive's head), and
// calls fn with every record q admits. When fo is not nil, scan records
// AsOf checkpoints of fo as it passes them, for as long as it has read
// every frame before its position: skipping frames unread ends that.
func (r *Reader) scan(from pos, q Query, fn func(seq uint64, e obs.Event) error, fo *fold) error {
	lr := lineReaders.Get().(*durable.LineReader) // one pair of buffers for every segment
	defer func() {
		lr.Reset(nil)
		lineReaders.Put(lr)
	}()
	passed := -1 // the last segment passed over as preceding the window
	for i := from.seg; i < len(r.segs); i++ {
		seg := r.segs[i].meta
		if q.MaxSeq > 0 && seg.SeqStart > q.MaxSeq {
			break
		}
		if seg.MaxTick < q.SinceTick {
			passed, fo = i, nil
			continue // whole segment precedes the window
		}
		if err := r.checkPassed(passed); err != nil {
			return err
		}
		passed = -1
		p := pos{seg: i, seq: seg.SeqStart}
		if q.SinceTick > seg.MinTick && r.segs[i].sealed {
			var err error
			if p, err = r.seek(i, q.SinceTick); err != nil {
				return err
			}
		}
		if from.seq > p.seq {
			p = from
		} else if p.off > 0 {
			fo = nil // the index skipped frames
		}
		if err := r.scanOne(p, q, lr, fn, fo); err != nil {
			if errors.Is(err, errStop) {
				return nil
			}
			return err
		}
	}
	return r.checkPassed(passed)
}

// checkPassed confirms, the first time a scan relies on it, that sealed
// segment i ends at the MaxTick its manifest entry states, by reading its
// last frame. Ticks never decrease along the stream, so a scan that passed
// over segments up to i for ending before its window has passed over no
// record inside it. A negative i, or the recovered tail, whose bounds come
// from its frames, needs no check.
func (r *Reader) checkPassed(i int) error {
	if i < 0 || !r.segs[i].sealed {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ends[i] {
		return nil
	}
	seg := r.segs[i].meta
	t, err := lastTick(filepath.Join(r.dir, seg.Name))
	if err != nil {
		return fmt.Errorf("archive: segment %s: %w", seg.Name, err)
	}
	if t != seg.MaxTick {
		return fmt.Errorf("archive: manifest: segment %s ends at tick %d, not at its max tick %d", seg.Name, t, seg.MaxTick)
	}
	r.ends[i] = true
	return nil
}

// lastTick returns the tick of a segment file's last frame, reading back
// from the end of the file in doubling chunks until one holds that frame
// whole.
func lastTick(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	for n := min(size, 4096); ; n = min(size, 2*n) {
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, size-n); err != nil {
			return 0, err
		}
		if n == 0 || buf[n-1] != '\n' {
			return 0, fmt.Errorf("%w: no whole last frame", durable.ErrCorrupt)
		}
		start := bytes.LastIndexByte(buf[:n-1], '\n') + 1
		if start > 0 || n == size {
			e, err := decodeFrame(buf[start : n-1])
			return int64(e.Time), err
		}
	}
}

// seek returns the frame at which a scan from valid time since enters
// sealed segment i. Every record before a sparse index entry has a tick no
// later than the entry's, so starting at the last entry whose tick is below
// since skips only records outside the window. The reader's first seek
// into the segment reads its index; an index that fails to read is not
// kept, so every seek into its segment fails alike.
func (r *Reader) seek(i int, since int64) (pos, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	index, ok := r.index[i]
	if !ok {
		var err error
		if index, err = readIndex(r.dir, i+1, r.segs[i].meta); err != nil {
			return pos{}, err
		}
		r.index[i] = index
	}
	p := pos{seg: i, seq: r.segs[i].meta.SeqStart}
	j := sort.Search(len(index), func(j int) bool { return index[j].Tick >= since })
	if j > 0 {
		p.off, p.seq = index[j-1].Offset, index[j-1].Seq
	}
	return p, nil
}

// readIndex reads and checks the n-th segment's index file: one durable
// frame of IndexEntry points whose seqs and offsets strictly increase and
// lie inside seg. A missing file is an empty index. A payload that is not
// in the form writeIndex writes is corrupt, as a frame's is.
func readIndex(dir string, n int, seg SegmentMeta) ([]IndexEntry, error) {
	name := indexName(n)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("archive: index: %w", err)
	}
	var index []IndexEntry
	payload, err := durable.Payload(bytes.TrimSuffix(data, []byte("\n")))
	if err == nil {
		if index, err = parseIndex(payload); err != nil {
			err = fmt.Errorf("%w: %w", durable.ErrCorrupt, err)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("archive: index: %s: %w", name, err)
	}
	prev := IndexEntry{Seq: seg.SeqStart - 1, Offset: -1}
	for _, ent := range index {
		if ent.Seq <= prev.Seq || ent.Seq >= seg.SeqStart+seg.Records || ent.Offset <= prev.Offset || ent.Offset >= seg.Bytes {
			return nil, fmt.Errorf("archive: index: %s: entry at seq %d, offset %d is out of order or outside segment %s", name, ent.Seq, ent.Offset, seg.Name)
		}
		prev = ent
	}
	return index, nil
}

// parseIndex reads an index payload as writeIndex writes it, without
// reflection: encoding/json's compact array of IndexEntry points, each
// with every member in field order. It accepts that form only; whatever it
// accepts, encoding/json decodes to the same entries.
func parseIndex(payload []byte) ([]IndexEntry, error) {
	p := wire.NewParser(payload)
	index := wire.ParseArray(&p, parseIndexEntry)
	return index, p.Finish()
}

// parseIndexEntry reads one sparse index point.
func parseIndexEntry(p *wire.Parser, ent *IndexEntry) {
	p.Want(`{"seq":`)
	ent.Seq = p.Uint64()
	p.Want(`,"t":`)
	ent.Tick = p.Int64()
	p.Want(`,"offset":`)
	ent.Offset = p.Int64()
	p.Want("}")
}

// scanOne reads segment p.seg from frame p to its end, or until q stops
// the scan. Checkpointing costs the loop one comparison per record.
func (r *Reader) scanOne(p pos, q Query, lr *durable.LineReader, fn func(seq uint64, e obs.Event) error, fo *fold) error {
	seg := r.segs[p.seg]
	f, err := os.Open(filepath.Join(r.dir, seg.meta.Name))
	if err != nil {
		return fmt.Errorf("archive: scan: %w", err)
	}
	defer f.Close()
	if p.off > 0 {
		if _, err := f.Seek(p.off, 0); err != nil {
			return fmt.Errorf("archive: scan: %w", err)
		}
	}
	lr.Reset(f)
	var mark uint64 // seq 0 never comes
	if fo != nil {
		mark = fo.next
	}
	for seq, off := p.seq, p.off; ; seq++ {
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
		if seq == mark {
			mark = r.checkpoint(fo, pos{seg: p.seg, off: off, seq: seq})
		}
		off += int64(len(line))
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
	}
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

// fold is AsOf's running reconstruction of a State. The HM rows and the
// quarantined set are short sorted slices, so a checkpoint copies each in
// one allocation.
type fold struct {
	events      uint64
	lastTick    int64
	lastSeq     uint64
	schedule    string
	degraded    bool
	hm          []hmRow  // sorted by partition
	quarantined []string // sorted
	maxTick     int64    // the largest tick folded
	next        uint64   // seq of the next checkpoint this fold may record
}

// hmRow is one partition's row of the reconstructed HM table.
type hmRow struct {
	partition string
	entry     HMEntry
}

// checkpoint is a fold as it stood before the frame at.
type checkpoint struct {
	fold
	at pos
}

// add folds one event. The kinds folded here define the as-of semantics:
// HM table from HM_REPORT, schedule mode from SCHEDULE_SWITCH/DEGRADE/
// RESTORE, quarantine set from the recovery brackets.
func (f *fold) add(seq uint64, e obs.Event) error {
	f.events++
	f.lastTick, f.lastSeq = int64(e.Time), seq
	f.maxTick = max(f.maxTick, f.lastTick)
	switch e.Kind {
	case obs.KindScheduleSwitch:
		f.schedule = scheduleName(e.Detail)
	case obs.KindScheduleDegrade:
		f.degraded = true
		f.schedule = scheduleName(e.Detail)
	case obs.KindScheduleRestore:
		f.degraded = false
		f.schedule = scheduleName(e.Detail)
	case obs.KindHMReport:
		p := string(e.Partition)
		i, ok := slices.BinarySearchFunc(f.hm, p, func(row hmRow, p string) int {
			return strings.Compare(row.partition, p)
		})
		if !ok {
			f.hm = slices.Insert(f.hm, i, hmRow{partition: p})
		}
		ent := &f.hm[i].entry
		ent.Code, ent.Level, ent.Action = e.Code, e.Level, e.Action
		ent.Tick = int64(e.Time)
		ent.Reports++
	case obs.KindQuarantineEnter:
		if i, ok := slices.BinarySearch(f.quarantined, string(e.Partition)); !ok {
			f.quarantined = slices.Insert(f.quarantined, i, string(e.Partition))
		}
	case obs.KindQuarantineExit:
		if i, ok := slices.BinarySearch(f.quarantined, string(e.Partition)); ok {
			f.quarantined = slices.Delete(f.quarantined, i, i+1)
		}
	}
	return nil
}

// state renders the fold as the State of the cut (asOfTick, asOfSeq): HM
// stays nil before the first HM_REPORT, Quarantined nil when empty.
func (f *fold) state(asOfTick int64, asOfSeq uint64) State {
	st := State{AsOfTick: asOfTick, AsOfSeq: asOfSeq, Events: f.events,
		LastTick: f.lastTick, LastSeq: f.lastSeq, Schedule: f.schedule, Degraded: f.degraded}
	if len(f.hm) > 0 {
		st.HM = make(map[string]HMEntry, len(f.hm))
		for _, row := range f.hm {
			st.HM[row.partition] = row.entry
		}
	}
	if len(f.quarantined) > 0 {
		st.Quarantined = f.quarantined
	}
	return st
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

// AsOf reconstructs the module state at valid time asOfTick (negative = the
// latest tick) as known by transaction seq asOfSeq (0 = as of the latest
// record): a fold over every record with Time <= asOfTick and seq <=
// asOfSeq. This is the bitemporal query — rewinding asOfSeq answers "what
// did we believe before record R arrived?", rewinding asOfTick answers
// "what had happened by tick T?". The fold resumes from the reader's last
// checkpoint inside the cut and reads only the records after it.
func (r *Reader) AsOf(asOfTick int64, asOfSeq uint64) (State, error) {
	f, from := r.resume(asOfTick, asOfSeq)
	err := r.scan(from, Query{UntilTick: asOfTick, MaxSeq: asOfSeq}, f.add, &f)
	return f.state(asOfTick, asOfSeq), err
}

// resume returns a copy of the last checkpoint inside the cut (asOfTick,
// asOfSeq) and its frame, or an empty fold at the archive's head. The
// checkpoints' ticks and seqs both only grow, so the ones inside the cut
// are a prefix of the list.
func (r *Reader) resume(asOfTick int64, asOfSeq uint64) (fold, pos) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.ckpts), func(i int) bool {
		c := &r.ckpts[i]
		pastTick := asOfTick >= 0 && c.maxTick > asOfTick
		pastSeq := asOfSeq > 0 && c.at.seq-1 > asOfSeq
		return pastTick || pastSeq
	})
	if i == 0 {
		return fold{next: checkpointEvery + 1}, pos{}
	}
	c := r.ckpts[i-1]
	c.hm, c.quarantined = slices.Clone(c.hm), slices.Clone(c.quarantined)
	c.next = c.at.seq + checkpointEvery
	return c.fold, c.at
}

// checkpoint records fo as the fold before frame p when p is the reader's
// next checkpoint, and returns the seq of the one after it.
func (r *Reader) checkpoint(fo *fold, p pos) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.seq == uint64(len(r.ckpts)+1)*checkpointEvery+1 {
		c := checkpoint{fold: *fo, at: p}
		c.hm, c.quarantined = slices.Clone(fo.hm), slices.Clone(fo.quarantined)
		r.ckpts = append(r.ckpts, c)
	}
	fo.next = p.seq + checkpointEvery
	return fo.next
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
