package archive

// CheckpointEvery is the fold checkpoint stride, for the external tests.
const CheckpointEvery = checkpointEvery

// ParseManifest is the manifest parser, for the external tests.
var ParseManifest = parseManifest

// CheckCatalog reports whether the catalog files in dir parse to what
// encoding/json reads from them, for the external tests.
var CheckCatalog = checkCatalog

// Checkpoints returns how many fold checkpoints r holds.
func (r *Reader) Checkpoints() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckpts.n
}

// ResumeSeq returns the seq of the first record AsOf(asOfTick, asOfSeq)
// reads: the frame of the last checkpoint inside the cut, or 1.
func (r *Reader) ResumeSeq(asOfTick int64, asOfSeq uint64) uint64 {
	_, p := r.resume(asOfTick, asOfSeq)
	return max(p.seq, 1)
}
