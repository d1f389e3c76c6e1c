package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a percentile
// before the benchmark reports it: a tail read off fewer points is a
// guess about one or two outliers, not a property of the system.
const minTailSamples = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest sample with at least q·n samples at or
// below it. It returns 0 for an empty slice.
func percentile(asc []float64, q float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	// Rounding guards against q·n landing a hair above an integer
	// (0.95·200 is 190.00000000000003 in binary).
	rank := int(math.Ceil(math.Round(q*float64(n)*1e9) / 1e9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1]
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(math.Round(q*float64(n)*1e9) / 1e9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// tail returns the q-quantile of an ascending slice when at least
// minTailSamples samples lie beyond it; ok is false otherwise, and the
// caller omits the percentile instead of reporting a number read off
// the last few points (or a zero).
func tail(asc []float64, q float64) (v float64, ok bool) {
	if beyond(len(asc), q) < minTailSamples {
		return 0, false
	}
	return percentile(asc, q), true
}

// highestTail picks, from the standard tail percentiles, the highest
// one the sample supports.
func highestTail(asc []float64) (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if v, ok := tail(asc, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// timed is one latency sample at an offset into the run.
type timed struct {
	at time.Duration
	v  float64
}

// windowedTail estimates the q-quantile robustly against a stall that
// hits one stretch of the run: it splits the run into the most equal
// stretches (up to three) that each still have minTailSamples beyond
// their q-quantile, takes the quantile in each, and returns the median
// of those. k is the number of stretches; ok is false when even the
// whole run is too short for q.
func windowedTail(samples []timed, span time.Duration, q float64) (v float64, k int, ok bool) {
	for k = 3; k >= 1; k-- {
		parts := make([][]float64, k)
		for _, s := range samples {
			i := int(int64(s.at) * int64(k) / int64(span))
			if i < 0 {
				i = 0
			}
			if i >= k {
				i = k - 1
			}
			parts[i] = append(parts[i], s.v)
		}
		var qs []float64
		for _, part := range parts {
			if x, ok := tail(sorted(part), q); ok {
				qs = append(qs, x)
			}
		}
		if len(qs) == k {
			return median(qs), k, true
		}
	}
	return 0, 0, false
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(n=4), so the
// spread this benchmark reports is the one a reader computing it from
// the raw values gets. One sample is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return asc[0], asc[0], asc[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median is the middle of xs (the mean of the two middle samples for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	default:
		return (asc[n/2-1] + asc[n/2]) / 2
	}
}

// iqrShare is the interquartile range as a share of the median: the
// run-to-run spread a bound is judged against.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// openLoopRequest is one request of an open-loop run. Due is when the
// schedule said to send it, Sent when the generator actually did, Done
// when the answer (or, for a job, its result) existed. All three are
// offsets from the run's start.
type openLoopRequest struct {
	Due, Sent, Done time.Duration
}

// Late is how far behind schedule the generator sent the request; a
// generator that is never late reads 0.
func (r openLoopRequest) Late() time.Duration {
	if r.Sent < r.Due {
		return 0
	}
	return r.Sent - r.Due
}

// Latency is timed from the due time, not the send time: a stall that
// delays later sends is charged to every request it delayed, which is
// what the users behind those requests would have seen.
func (r openLoopRequest) Latency() time.Duration { return r.Done - r.Due }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
