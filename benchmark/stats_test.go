package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.95, 7},
		{"median of ten is the fifth", seq(10), 0.5, 5},
		{"p90 of ten is the ninth", seq(10), 0.9, 9},
		{"p95 of ten rounds up to the tenth", seq(10), 0.95, 10},
		{"p95 of 200 is the 190th, not the 191st", seq(200), 0.95, 190},
		{"p100 is the maximum", seq(7), 1, 7},
		{"tiny q is the minimum", seq(7), 0.001, 1},
	} {
		if got := percentile(tc.xs, tc.q); got != tc.want {
			t.Errorf("%s: percentile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		q      float64
		ok     bool
		want   float64
		beyond int
	}{
		{"p95 of 199 is omitted", 199, 0.95, false, 0, 9},
		{"p95 of 200 has exactly ten beyond", 200, 0.95, true, 190, 10},
		{"p90 of 100 has ten beyond", 100, 0.9, true, 90, 10},
		{"p90 of 99 is omitted", 99, 0.9, false, 0, 9},
		{"p50 of 20 has ten beyond", 20, 0.5, true, 10, 10},
		{"nothing from an empty sample", 0, 0.5, false, 0, 0},
	} {
		if b := beyond(tc.n, tc.q); b != tc.beyond {
			t.Errorf("%s: beyond = %d, want %d", tc.name, b, tc.beyond)
		}
		got, ok := tail(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("%s: tail = %v, %v; want %v, %v (an omitted percentile must not read as 0 data)", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{10000, 0.999, true},
		{1000, 0.99, true},
		{400, 0.95, true},
		{150, 0.9, true},
		{60, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, _, ok := highestTail(seq(tc.n))
		if q != tc.wantQ || ok != tc.ok {
			t.Errorf("n=%d: highestTail = p%g (ok %v), want p%g (ok %v)", tc.n, 100*q, ok, 100*tc.wantQ, tc.ok)
		}
	}
}

func TestWindowedTail(t *testing.T) {
	span := 30 * time.Second
	// 600 samples spread evenly over the span, with one stretch slowed
	// tenfold: the median over stretches ignores the slow one.
	var samples []timed
	for i := 0; i < 600; i++ {
		at := time.Duration(i) * span / 600
		v := float64(i%200 + 1)
		if at >= 20*time.Second {
			v *= 10
		}
		samples = append(samples, timed{at, v})
	}
	v, k, ok := windowedTail(samples, span, 0.95)
	if !ok || k != 3 || v != 190 {
		t.Errorf("600 samples: windowedTail = %v over %d stretches (ok %v), want 190 over 3", v, k, ok)
	}
	// The first 400 over 20s: thirds would hold 133 samples, too few
	// for a p95, so the run splits in two.
	v, k, ok = windowedTail(samples[:400], 20*time.Second, 0.95)
	if !ok || k != 2 || v != 190 {
		t.Errorf("400 samples: windowedTail = %v over %d stretches (ok %v), want 190 over 2", v, k, ok)
	}
	if _, _, ok := windowedTail(samples[:150], span, 0.95); ok {
		t.Error("150 samples cannot support a p95 with ten samples beyond it")
	}
}

func TestMedianAndQuartilesOverRepeats(t *testing.T) {
	for _, tc := range []struct {
		name       string
		xs         []float64
		q1, q2, q3 float64
		median     float64
	}{
		// Values as Python's statistics.quantiles(xs, n=4) gives them.
		{"one to ten", seq(10), 2.75, 5.5, 8.25, 5.5},
		{"four", []float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 2.5},
		{"odd count", []float64{10, 30, 20, 50, 40}, 15, 30, 45, 30},
		{"two", []float64{2, 1}, 0.75, 1.5, 2.25, 1.5},
		{"one", []float64{3}, 3, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("%s: quartiles = %v %v %v, want %v %v %v", tc.name, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.median {
			t.Errorf("%s: median = %v, want %v", tc.name, m, tc.median)
		}
	}
	if got := iqrShare(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name          string
		r             openLoopRequest
		late, latency time.Duration
	}{
		{"on time", openLoopRequest{Due: 100 * ms, Sent: 100 * ms, Done: 130 * ms}, 0, 30 * ms},
		// A stall before sending is charged to the request: latency runs
		// from when it was due, not from when it finally went out.
		{"sent late", openLoopRequest{Due: 100 * ms, Sent: 150 * ms, Done: 160 * ms}, 50 * ms, 60 * ms},
		{"sent early counts as on time", openLoopRequest{Due: 100 * ms, Sent: 99 * ms, Done: 110 * ms}, 0, 10 * ms},
	} {
		if got := tc.r.Late(); got != tc.late {
			t.Errorf("%s: Late = %v, want %v", tc.name, got, tc.late)
		}
		if got := tc.r.Latency(); got != tc.latency {
			t.Errorf("%s: Latency = %v, want %v", tc.name, got, tc.latency)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "experiment.all", SpanID: 1, Start: at(0), End: at(100)},
		// Two overlapping children cover 10..60; one pokes out past the
		// parent's end and is clipped.
		{Name: "sim.run", SpanID: 2, Parent: 1, Start: at(10), End: at(50)},
		{Name: "sim.run", SpanID: 3, Parent: 1, Start: at(30), End: at(60)},
		{Name: "sim.run", SpanID: 4, Parent: 1, Start: at(90), End: at(120)},
		{Name: "sim.simulate", SpanID: 5, Parent: 2, Start: at(10), End: at(40)},
	}
	got := map[string]time.Duration{}
	for _, lt := range selfTimes(spans) {
		got[lt.Layer] = lt.Self
	}
	// experiment: 100 − (50 covered by 10..60 + 10 by 90..100) = 40.
	// sim: run 2 is 40 − 30 = 10, runs 3 and 4 have no children (30 +
	// 30), simulate 30: 100 in all.
	if got["experiment"] != 40*time.Millisecond || got["sim"] != 100*time.Millisecond {
		t.Errorf("self times = %v, want experiment 40ms, sim 100ms", got)
	}
}
