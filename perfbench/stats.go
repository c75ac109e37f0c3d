package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// ascending-sorted values: the smallest value with at least p of the
// sample at or below it. An empty sample reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle of v (the mean of the two middle values for an
// even count), leaving v unchanged.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// histQuantile estimates the q-quantile of a bucketed distribution
// (Prometheus "le" buckets: counts has one more entry than bounds, the
// last being +Inf) by linear interpolation inside the bucket the
// quantile falls in. A quantile in the +Inf bucket reads the last
// bound; an empty histogram reads 0.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if c > 0 && next >= rank {
			if i == len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}

// reservoir keeps a fixed-size uniform sample of a stream (Algorithm
// R), so latency percentiles cost the same memory however many
// requests a run completes — a faster build must not read as a
// bigger one in peak RSS. The generator is a seeded xorshift, so the
// kept subset is a function of the stream alone.
type reservoir struct {
	buf  []float64
	seen uint64
	rng  uint64
}

func newReservoir(size int, seed uint64) *reservoir {
	return &reservoir{buf: make([]float64, 0, size), rng: seed | 1}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.seen; j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}
