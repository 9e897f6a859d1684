package main

import (
	"sort"
	"time"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// the spreads of recorded sets can be checked with either.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// millis converts durations to a sample in milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// slicedThroughput splits a run of equal-weight ops into k contiguous
// slices and returns each slice's simulated ticks per host second, so a
// single stall moves one slice and not the median.
func slicedThroughput(ticks []int64, durs []time.Duration, k int) []float64 {
	if len(ticks) < k {
		k = len(ticks)
	}
	var out []float64
	for s := 0; s < k; s++ {
		lo, hi := s*len(ticks)/k, (s+1)*len(ticks)/k
		var t int64
		var d time.Duration
		for i := lo; i < hi; i++ {
			t += ticks[i]
			d += durs[i]
		}
		if d > 0 {
			out = append(out, float64(t)/d.Seconds())
		}
	}
	return out
}
