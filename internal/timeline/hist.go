package timeline

import (
	"air/internal/tick"
	"air/internal/wire"
)

// histBuckets is the number of log2 buckets of a timeline histogram: bucket
// i (i ≥ 1) counts observations v with 2^(i-1) ≤ v < 2^i, bucket 0 counts
// v ≤ 0. 24 buckets cover response times, slacks and lead times up to 2^23
// ticks — three orders of magnitude beyond the fig8 MTF — in fixed storage,
// so observing never allocates (the HDR-histogram idea restricted to
// power-of-two boundaries).
const histBuckets = 24

// hist is the in-place accumulation form. All fields are plain values; the
// analyzer keeps one per measured quantity per process.
type hist struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [histBuckets]uint64
}

// observe folds one value. Negative values clamp to zero (bucket 0): the
// analyzer tracks signed quantities like slack separately from miss counts,
// so a negative slack shows up as a zero-bucket observation plus a recorded
// deadline miss.
//
//air:hotpath
func (h *hist) observe(v tick.Ticks) {
	var u uint64
	if v > 0 {
		u = uint64(v)
	}
	if h.count == 0 || u < h.min {
		h.min = u
	}
	if u > h.max {
		h.max = u
	}
	h.count++
	h.sum += u
	b := 0
	for x := u; x > 0 && b < histBuckets-1; x >>= 1 {
		b++
	}
	h.buckets[b]++
}

// HistSnap is the serializable, mergeable state of a timeline histogram.
// Buckets are trimmed of trailing zeros so artifacts stay compact and
// deterministic.
type HistSnap struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

func (h *hist) snap() HistSnap {
	s := HistSnap{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	last := -1
	for i, b := range h.buckets {
		if b != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = make([]uint64, last+1)
		copy(s.Buckets, h.buckets[:last+1])
	}
	return s
}

// Add merges two snapshots: counts and sums add, extrema widen, buckets add
// index-wise. Campaign aggregation folds per-run histograms through it.
func (s HistSnap) Add(o HistSnap) HistSnap {
	var t HistSnap
	t.accumulate(&s)
	t.accumulate(&o)
	return t
}

// accumulate adds o into s in place, Add's one merge rule: the buckets add
// into s's own slice, grown to o's length, never o's.
func (s *HistSnap) accumulate(o *HistSnap) {
	switch {
	case s.Count == 0:
		s.Min, s.Max = o.Min, o.Max
	case o.Count != 0:
		s.Min, s.Max = min(s.Min, o.Min), max(s.Max, o.Max)
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Mean = 0
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	if len(o.Buckets) > len(s.Buckets) {
		s.Buckets = append(s.Buckets, make([]uint64, len(o.Buckets)-len(s.Buckets))...)
	}
	for i, v := range o.Buckets {
		s.Buckets[i] += v
	}
	if len(s.Buckets) == 0 {
		s.Buckets = nil
	}
}

func appendHist(e *wire.Encoder, key string, h *HistSnap) {
	e.Raw(key)
	e.Raw(`{"count":`)
	e.Uint(h.Count)
	e.Raw(`,"sum":`)
	e.Uint(h.Sum)
	e.Raw(`,"min":`)
	e.Uint(h.Min)
	e.Raw(`,"max":`)
	e.Uint(h.Max)
	e.Raw(`,"mean":`)
	e.Float(h.Mean)
	if len(h.Buckets) > 0 {
		e.Raw(`,"buckets":`)
		e.Uints(h.Buckets)
	}
	e.Raw("}")
}

func parseHist(p *wire.Parser, key string, h *HistSnap) {
	if !p.Field(key) {
		return
	}
	p.Object()
	if p.Field(`"count":`) {
		h.Count = p.Uint64()
	}
	if p.Field(`"sum":`) {
		h.Sum = p.Uint64()
	}
	if p.Field(`"min":`) {
		h.Min = p.Uint64()
	}
	if p.Field(`"max":`) {
		h.Max = p.Uint64()
	}
	if p.Field(`"mean":`) {
		h.Mean = p.Float64()
	}
	if p.Field(`"buckets":`) {
		h.Buckets = p.NonemptyUints()
	}
	p.End()
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the log2 buckets: the
// upper edge of the bucket holding the q·count-th observation, clamped to
// the exact observed extrema. Max is exact for q = 1; interior quantiles
// carry the power-of-two bucket resolution.
func (s HistSnap) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen uint64
	for i, b := range s.Buckets {
		seen += b
		if seen >= rank {
			var edge uint64
			if i > 0 {
				edge = 1<<uint(i) - 1
			}
			if edge < s.Min {
				edge = s.Min
			}
			if edge > s.Max {
				edge = s.Max
			}
			return edge
		}
	}
	return s.Max
}
