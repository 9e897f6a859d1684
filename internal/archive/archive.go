// Package archive is the bitemporal flight archive: a durable trace store
// for observability-spine events, keyed on the two time axes a forensic
// investigation actually asks about — valid time (the simulation tick the
// event describes) and transaction time (the monotonically increasing record
// sequence in which the archive learned it). The flight recorder
// (internal/timeline) keeps a bounded ring frozen at the first HM error;
// the archive keeps everything, durably, so "what did the Health Monitor
// believe at tick T as of record R of run X?" is answerable long after the
// run — and two runs' histories can be diffed to localize the first tick a
// fault variant diverged from its fault-free twin.
//
// # On-disk format
//
// An archive is a directory of bounded segment files, one sparse tick index
// per sealed segment, and a manifest:
//
//	MANIFEST.json     sealed-segment catalog (records, seq/tick/byte
//	                  bounds) in compact JSON, rewritten atomically at
//	                  each seal
//	seg-000001.jsonl  CRC-framed records, one per line
//	seg-000001.idx    the sealed segment's sparse tick index, written once
//	                  at its seal
//	seg-000002.jsonl  ...
//
// Each record line is framed as
//
//	<crc32-ieee, 8 lowercase hex digits> <JSON record>\n
//
// where the JSON payload is exactly the pinned obs.Record wire form, so an
// archived stream re-encodes byte-identically to the live JSONL sink.
// Every read decodes the payload with obs.ParseRecord, the inverse of
// obs.AppendRecord, which accepts that canonical form only: a CRC-valid
// frame in any other form is corrupt. The transaction sequence is
// implicit: the i-th record of the concatenated segment stream has seq i
// (1-based) — appending is the only mutation, so position is identity.
//
// An index file is one frame of the same form whose payload is the JSON
// array of the segment's IndexEntry points. The manifest holds a fixed-size
// entry per segment, so opening a reader and sealing a segment cost
// O(segments); a reader reads a segment's index only when a scan first
// seeks into that segment by tick. A missing index file means no seek
// points: the scan enters the segment at its start.
//
// Both catalog files hold encoding/json's compact form of their value, and
// readers parse that form without reflection (internal/wire), as they do
// frames. An index payload in any other form is corrupt, as a frame's is.
// A manifest in any other form is read by encoding/json, so every archive
// written before the compact manifest still opens: the indented manifests
// of earlier writers, and those of archives written before index files
// existed, which carry each segment's index inside MANIFEST.json. Readers
// ignore that key, so their scans enter every segment at its start, and a
// writer reopening either kind writes the compact manifest, without the
// key, at its next seal.
//
// The frame and its recovery rule belong to internal/durable, which the
// fleet journal shares. A seal fsyncs the segment, then writes its index
// and then the manifest, each atomically (durable.WriteFile), so a manifest
// never names a segment whose index is not durable. The active segment is
// recovered on reopen by validating frames and truncating the torn tail, so
// a writer killed mid-append loses at most the unframed suffix of its last
// buffer flush, and a corrupt complete frame is an error, never silently
// dropped.
//
// The write path is allocation-free: Sink.Emit encodes frames into a
// preallocated staging buffer with obs.AppendRecord, and buffer flushes /
// segment seals happen off the hot path, amortized over thousands of
// appends, so a module tick with the sink attached stays on its 0 allocs
// budget. The read path reads frames in place from its bufio buffer and
// decodes them without reflection.
package archive

import "fmt"

// Defaults for Options.
const (
	// DefaultSegmentRecords bounds one segment file; a seal (fsync, index
	// write, manifest rewrite) happens once per this many appends.
	DefaultSegmentRecords = 8192
	// DefaultIndexEvery is the sparse tick-index stride: one index entry
	// per this many records.
	DefaultIndexEvery = 64
	// DefaultBufBytes sizes the staging buffer the hot path encodes into.
	DefaultBufBytes = 1 << 16
)

// manifestName is the catalog file within an archive directory.
const manifestName = "MANIFEST.json"

// manifestVersion guards the catalog schema.
const manifestVersion = 1

// Options configures a Sink.
type Options struct {
	// SegmentRecords bounds records per segment file (0 selects
	// DefaultSegmentRecords).
	SegmentRecords int
	// IndexEvery is the sparse tick-index stride (0 selects
	// DefaultIndexEvery).
	IndexEvery int
	// BufBytes sizes the staging buffer (0 selects DefaultBufBytes).
	BufBytes int
}

func (o Options) withDefaults() Options {
	if o.SegmentRecords <= 0 {
		o.SegmentRecords = DefaultSegmentRecords
	}
	if o.IndexEvery <= 0 {
		o.IndexEvery = DefaultIndexEvery
	}
	if o.BufBytes <= 0 {
		o.BufBytes = DefaultBufBytes
	}
	return o
}

// IndexEntry is one sparse tick-index point: the record at Offset within its
// segment carries transaction seq Seq and valid time Tick. Records are
// appended in nondecreasing tick order, so every record before an entry has
// a tick no later than the entry's — the invariant range scans seek on. A
// sealed segment's entries live in its index file (indexName).
type IndexEntry struct {
	Seq    uint64 `json:"seq"`
	Tick   int64  `json:"t"`
	Offset int64  `json:"offset"`
}

// SegmentMeta catalogs one sealed segment.
type SegmentMeta struct {
	Name     string `json:"name"`
	Records  uint64 `json:"records"`
	SeqStart uint64 `json:"seqStart"` // 1-based seq of the first record
	MinTick  int64  `json:"minTick"`
	MaxTick  int64  `json:"maxTick"`
	Bytes    int64  `json:"bytes"`
}

// Manifest is the archive catalog: every sealed segment in order. The active
// (unsealed) segment is deliberately absent — readers recover it by frame
// validation, exactly as a reopening writer does.
type Manifest struct {
	Version  int           `json:"version"`
	Records  uint64        `json:"records"` // total sealed records
	Segments []SegmentMeta `json:"segments"`
}

// segmentName renders the n-th (1-based) segment file name.
func segmentName(n int) string {
	return fmt.Sprintf("seg-%06d.jsonl", n)
}

// indexName renders the n-th (1-based) segment's index file name.
func indexName(n int) string {
	return fmt.Sprintf("seg-%06d.idx", n)
}

// Stats is a point-in-time accounting of an archive writer, exported to the
// Prometheus air_archive_* gauges.
type Stats struct {
	// Segments counts segment files (sealed plus the active one once it
	// holds a record).
	Segments uint64 `json:"segments"`
	// Bytes is the total frame bytes appended, staged or flushed.
	Bytes uint64 `json:"bytes"`
	// Records is the total records appended (the current transaction seq).
	Records uint64 `json:"records"`
}

// InTickRange reports whether valid time t lies inside the inclusive
// [since, until] window; until < 0 means unbounded above. It is the single
// range predicate shared by the reader's scans and airtrace's -since/-until
// filters, so the CLI and the archive agree on boundary semantics.
func InTickRange(t, since, until int64) bool {
	return t >= since && (until < 0 || t <= until)
}
