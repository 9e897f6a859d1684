package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"air/internal/durable"
	"air/internal/obs"
	"air/internal/wire"
)

// Sink is the archive writer: an obs.Sink that appends every spine event it
// sees into the archive directory as CRC-framed records. Emit stages frames
// into a preallocated buffer; flushing the buffer and sealing segments
// happen off the hot path. The sink is single-writer, same as the module
// spine that feeds it; it is not internally synchronized — except Stats,
// which reads lock-free published gauges and is safe to call from the
// telemetry server's goroutine while the simulation appends.
type Sink struct {
	dir  string
	opts Options
	err  error

	f   *os.File // active segment
	buf []byte   // staging buffer (preallocated, flushed before full)

	manifest Manifest
	seq      uint64 // records appended overall (== last record's seq)

	segNum     int    // 1-based number of the active segment
	segRecords uint64 // records in the active segment
	segBytes   int64  // flushed bytes of the active segment
	segMin     int64  // min valid time in the active segment
	segMax     int64  // max valid time in the active segment
	index      []IndexEntry

	bytesTotal uint64 // frame bytes appended across all segments

	// pub mirrors the gauges Stats serves: atomically published so the
	// telemetry goroutine can poll them while the spine appends.
	pub struct{ segments, bytes, records atomic.Uint64 }
}

// Open creates (or reopens) the archive directory for appending. Reopening
// an archive whose writer died mid-append recovers under the durable
// recovery rule, the same as the fleet journal: sealed segments are
// authoritative via the manifest, the active segment's torn tail — a final
// line without its newline — is truncated before appending resumes, and a
// corrupt complete frame is an error.
func Open(dir string, opts Options) (*Sink, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: open: %w", err)
	}
	s := &Sink{
		dir:  dir,
		opts: opts,
		buf:  make([]byte, 0, opts.BufBytes),
		// One entry per stride, plus the stride-0 entry of the next record
		// when a seal is pending: capacity-bounded for the segment's life.
		index: make([]IndexEntry, 0, opts.SegmentRecords/opts.IndexEvery+1),
	}
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s.manifest = m
	s.seq = m.Records
	for _, seg := range m.Segments {
		s.bytesTotal += uint64(seg.Bytes)
	}
	s.segNum = len(m.Segments) + 1
	if err := s.recoverActive(); err != nil {
		return nil, err
	}
	if s.f == nil {
		if err := s.openSegment(); err != nil {
			return nil, err
		}
	}
	s.pub.records.Store(s.seq)
	s.pub.bytes.Store(s.bytesTotal)
	segs := uint64(len(s.manifest.Segments))
	if s.segRecords > 0 {
		segs++
	}
	s.pub.segments.Store(segs)
	return s, nil
}

// readManifest loads the catalog; a missing file is an empty archive. A
// writer opens a segment only once the manifest lists the one before, so
// at most one segment file, the unsealed one, follows those it lists; a
// live writer may seal it between the read and that check, so a second
// read decides.
func readManifest(dir string) (Manifest, error) {
	for reread := false; ; reread = true {
		m, err := decodeManifest(dir)
		if err != nil {
			return m, fmt.Errorf("archive: manifest: %w", err)
		}
		next := segmentName(len(m.Segments) + 2)
		if _, err := os.Stat(filepath.Join(dir, next)); err != nil {
			return m, nil
		}
		if reread {
			return m, fmt.Errorf("archive: manifest: lists %d segments, but %s exists", len(m.Segments), next)
		}
	}
}

// decodeManifest reads the catalog in dir. The form writeManifest writes is
// read by parseManifest; a manifest in any other form goes through
// encoding/json, so the indented manifests of earlier writers, and those
// that still carry each segment's index, open as they always have. The
// version check and validate run on either path.
func decodeManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return Manifest{}, err
	}
	m, err := parseManifest(data)
	if err != nil {
		m = Manifest{} // json.Unmarshal would merge into what the parse left
		if err := json.Unmarshal(data, &m); err != nil {
			return m, err
		}
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("unsupported version %d", m.Version)
	}
	return m, m.validate()
}

// parseManifest reads a manifest as writeManifest writes it, without
// reflection: encoding/json's compact form of a Manifest, every member in
// field order, and one newline. It accepts that form only; whatever it
// accepts, encoding/json decodes to the same Manifest.
func parseManifest(data []byte) (Manifest, error) {
	var m Manifest
	p := wire.NewParser(bytes.TrimSuffix(data, []byte("\n")))
	p.Want(`{"version":`)
	m.Version = p.Int()
	p.Want(`,"records":`)
	m.Records = p.Uint64()
	p.Want(`,"segments":`)
	m.Segments = wire.ParseArray(&p, parseSegmentMeta)
	p.Want("}")
	return m, p.Finish()
}

// parseSegmentMeta reads one manifest segment entry.
func parseSegmentMeta(p *wire.Parser, seg *SegmentMeta) {
	p.Want(`{"name":`)
	seg.Name = p.Str()
	p.Want(`,"records":`)
	seg.Records = p.Uint64()
	p.Want(`,"seqStart":`)
	seg.SeqStart = p.Uint64()
	p.Want(`,"minTick":`)
	seg.MinTick = p.Int64()
	p.Want(`,"maxTick":`)
	seg.MaxTick = p.Int64()
	p.Want(`,"bytes":`)
	seg.Bytes = p.Int64()
	p.Want("}")
}

// validate checks that the catalog describes this archive's own segment
// files, seg-000001.jsonl on, as consecutive non-empty seq ranges, so no
// name or seq a reader takes from it leads outside the archive. Index
// entries are checked against these bounds when a reader loads them
// (readIndex).
func (m Manifest) validate() error {
	seq := uint64(1)
	for i, seg := range m.Segments {
		switch {
		case seg.Name != segmentName(i+1):
			return fmt.Errorf("segment %d is named %q, want %q", i+1, seg.Name, segmentName(i+1))
		case seg.SeqStart != seq:
			return fmt.Errorf("segment %s starts at seq %d, want %d", seg.Name, seg.SeqStart, seq)
		case seg.Records == 0 || seq+seg.Records < seq:
			return fmt.Errorf("segment %s holds %d records", seg.Name, seg.Records)
		case seg.MinTick > seg.MaxTick:
			return fmt.Errorf("segment %s has min tick %d above max tick %d", seg.Name, seg.MinTick, seg.MaxTick)
		}
		seq += seg.Records
	}
	if m.Records != seq-1 {
		return fmt.Errorf("records %d, but the segments hold %d", m.Records, seq-1)
	}
	return nil
}

// recoverActive validates the active (post-manifest) segment if one exists
// under the durable recovery rule, truncates its torn tail, and resumes the
// writer's counters and sparse index from its records.
func (s *Sink) recoverActive() error {
	path := filepath.Join(s.dir, segmentName(s.segNum))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("archive: recover: %w", err)
	}
	valid, err := durable.Recover(f, func(payload []byte, offset int64) error {
		e, err := obs.ParseRecord(payload)
		if err == nil {
			s.noteRecord(int64(e.Time), offset)
		}
		return err
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("archive: recover %s: %w", segmentName(s.segNum), err)
	}
	s.f = f
	s.segBytes = valid
	s.bytesTotal += uint64(valid)
	return nil
}

// noteRecord advances the per-segment accounting (seq, tick bounds, sparse
// index) for one record whose frame starts at offset within the active
// segment. Shared by the hot append path and recovery.
//
//air:hotpath
func (s *Sink) noteRecord(t int64, offset int64) {
	if s.segRecords%uint64(s.opts.IndexEvery) == 0 {
		s.index = append(s.index, IndexEntry{Seq: s.seq + 1, Tick: t, Offset: offset}) //air:allow(alloc): capacity-bounded to one entry per stride, reset at seal
	}
	if s.segRecords == 0 {
		s.segMin, s.segMax = t, t
		s.pub.segments.Store(uint64(len(s.manifest.Segments)) + 1) //air:allow(call): lock-free gauge publish for the telemetry goroutine, once per segment
	}
	s.segMin, s.segMax = min(s.segMin, t), max(s.segMax, t)
	s.segRecords++
	s.seq++
	s.pub.records.Store(s.seq) //air:allow(call): lock-free gauge publish for the telemetry goroutine
}

// openSegment creates the active segment file.
func (s *Sink) openSegment() error {
	path := filepath.Join(s.dir, segmentName(s.segNum))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("archive: segment: %w", err)
	}
	s.f = f
	return nil
}

// Emit appends one event. Implements obs.Sink. The first error sticks and
// suppresses further output; check it via Flush or Close.
//
//air:hotpath
func (s *Sink) Emit(e obs.Event) {
	if s == nil || s.err != nil {
		return
	}
	need := frameBound(e)
	if len(s.buf)+need > cap(s.buf) || s.segRecords >= uint64(s.opts.SegmentRecords) {
		s.roll() //air:allow(call): buffer flush and segment seal run once per thousands of appends, off the hot path
		if s.err != nil {
			return
		}
	}
	s.noteRecord(int64(e.Time), s.segBytes+int64(len(s.buf)))
	mark := len(s.buf)
	s.buf = appendFrame(s.buf, e) //air:allow(alloc): grows only when one frame's bound exceeds the whole staging buffer; otherwise the roll above left frameBound bytes free
	s.bytesTotal += uint64(len(s.buf) - mark)
	s.pub.bytes.Store(s.bytesTotal) //air:allow(call): lock-free gauge publish for the telemetry goroutine
}

// roll drains the staging buffer into the active segment and, when the
// segment is full, seals it and opens the next one. Never on the hot path.
func (s *Sink) roll() {
	if s.err != nil {
		return
	}
	if len(s.buf) > 0 {
		//air:allow(durable): roll IS the framing encoder; s.buf holds whole CRC-framed records
		n, err := s.f.Write(s.buf)
		s.segBytes += int64(n)
		s.buf = s.buf[:0]
		if err != nil {
			s.err = fmt.Errorf("archive: write: %w", err)
			return
		}
	}
	if s.segRecords >= uint64(s.opts.SegmentRecords) {
		s.seal()
	}
}

// seal makes the active segment durable and catalogs it: fsync the file,
// write its sparse index to its index file, append its metadata (record
// count, seq/tick/byte bounds) to the manifest, atomically replace the
// manifest, and open the next segment. The index is durable before the
// manifest names the segment; a crash between the two leaves the segment
// active for the reopened writer, whose next seal replaces the index.
func (s *Sink) seal() {
	if s.err = s.f.Sync(); s.err != nil {
		s.err = fmt.Errorf("archive: seal: %w", s.err)
		return
	}
	if s.err = s.f.Close(); s.err != nil {
		s.err = fmt.Errorf("archive: seal: %w", s.err)
		return
	}
	s.f = nil
	if s.err = writeIndex(s.dir, s.segNum, s.index); s.err != nil {
		return
	}
	meta := SegmentMeta{
		Name:     segmentName(s.segNum),
		Records:  s.segRecords,
		SeqStart: s.seq - s.segRecords + 1,
		MinTick:  s.segMin,
		MaxTick:  s.segMax,
		Bytes:    s.segBytes,
	}
	s.manifest.Segments = append(s.manifest.Segments, meta)
	s.manifest.Records += s.segRecords
	if s.err = writeManifest(s.dir, s.manifest); s.err != nil {
		return
	}
	s.segNum++
	s.segRecords, s.segBytes, s.segMin, s.segMax = 0, 0, 0, 0
	s.index = s.index[:0]
	s.err = s.openSegment()
}

// writeIndex atomically writes the n-th segment's sparse index as one
// durable frame whose payload is the JSON array of its entries.
func writeIndex(dir string, n int, index []IndexEntry) error {
	payload, err := json.Marshal(index)
	if err == nil {
		frame := append(append(durable.Begin(nil), payload...), '\n')
		durable.Seal(frame)
		err = durable.WriteFile(filepath.Join(dir, indexName(n)), frame, 0o644)
	}
	if err != nil {
		return fmt.Errorf("archive: index: %w", err)
	}
	return nil
}

// writeManifest atomically replaces the catalog with encoding/json's
// compact form of m and a newline, the form parseManifest reads.
func writeManifest(dir string, m Manifest) error {
	data, err := json.Marshal(m)
	if err == nil {
		err = durable.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("archive: manifest: %w", err)
	}
	return nil
}

// Flush drains the staging buffer to the active segment (no seal, no fsync)
// and returns the sink's sticky error, so live readers — the /archive/*
// endpoints polled mid-run — see every appended record.
func (s *Sink) Flush() error {
	if s == nil {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	if len(s.buf) > 0 {
		//air:allow(durable): Flush drains the frame encoder's own staging buffer of whole frames
		n, err := s.f.Write(s.buf)
		s.segBytes += int64(n)
		s.buf = s.buf[:0]
		if err != nil {
			s.err = fmt.Errorf("archive: write: %w", err)
		}
	}
	return s.err
}

// Close drains the staging buffer, seals the active segment if it holds any
// records (an empty one is removed), and closes the archive. The sink must
// not be used afterwards.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	if err := s.Flush(); err != nil {
		if s.f != nil {
			s.f.Close()
			s.f = nil
		}
		return err
	}
	if s.segRecords > 0 {
		s.seal()
		// seal reopens the next segment; remove the empty leftover.
		if s.err == nil {
			s.err = s.f.Close()
			s.f = nil
			if s.err == nil {
				s.err = os.Remove(filepath.Join(s.dir, segmentName(s.segNum)))
			}
		}
	} else if s.f != nil {
		name := s.f.Name()
		s.err = s.f.Close()
		s.f = nil
		if s.err == nil {
			s.err = os.Remove(name)
		}
	}
	return s.err
}

// Stats reports the writer's accounting for telemetry gauges. Unlike the
// rest of the sink it is safe to call concurrently with Emit: it reads the
// atomically published mirror of the counters.
func (s *Sink) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Segments: s.pub.segments.Load(),
		Bytes:    s.pub.bytes.Load(),
		Records:  s.pub.records.Load(),
	}
}
