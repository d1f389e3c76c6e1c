package tracestore

import (
	"testing"

	"redhip/internal/lru"
)

// TestMaterializeNanosIsCumulative is the regression test for the
// sweep-benchmark accounting bug: MaterializeNanos accumulates over
// the store's whole lifetime, so an interval consumer that reads the
// raw counter after N fills sees N fills' worth of time — a warm
// store's lifetime total once got compared against a cold store's
// single fill and reported warm generation as slower than cold. The
// scripted clock makes the arithmetic exact: per-interval numbers must
// come from Delta, per-fill means from MeanMaterializeNanos.
func TestMaterializeNanosIsCumulative(t *testing.T) {
	// The clock advances 100ns during the first fill and 300ns during
	// the second (Get reads it twice per materialisation).
	ticks := []int64{0, 100, 1000, 1300}
	i := 0
	s := NewWithClock(0, func() int64 { n := ticks[i]; i++; return n })

	before := s.Stats()
	if _, err := s.Get(testKey("mcf", 500)); err != nil {
		t.Fatal(err)
	}
	afterFirst := s.Stats()
	if afterFirst.MaterializeNanos != 100 || afterFirst.Materializations != 1 {
		t.Fatalf("after first fill: nanos=%d materializations=%d, want 100/1",
			afterFirst.MaterializeNanos, afterFirst.Materializations)
	}
	if _, err := s.Get(testKey("milc", 500)); err != nil {
		t.Fatal(err)
	}
	afterSecond := s.Stats()
	if afterSecond.MaterializeNanos != 400 || afterSecond.Materializations != 2 {
		t.Fatalf("after second fill: nanos=%d materializations=%d, want 400/2",
			afterSecond.MaterializeNanos, afterSecond.Materializations)
	}

	// The bug: reading the raw counter for the second interval would
	// report 400ns. Delta isolates the interval...
	d := afterSecond.Delta(afterFirst)
	if d.MaterializeNanos != 300 || d.Materializations != 1 || d.Misses != 1 {
		t.Errorf("second-interval delta: nanos=%d materializations=%d misses=%d, want 300/1/1",
			d.MaterializeNanos, d.Materializations, d.Misses)
	}
	// ...and the whole-life delta against the zero snapshot is the raw
	// counter, so Delta composes.
	if all := afterSecond.Delta(before); all.MaterializeNanos != 400 {
		t.Errorf("whole-life delta nanos = %d, want 400", all.MaterializeNanos)
	}
	if got := afterSecond.MeanMaterializeNanos(); got != 200 {
		t.Errorf("mean materialize nanos = %d, want 200", got)
	}
	if got := (Stats{}).MeanMaterializeNanos(); got != 0 {
		t.Errorf("mean on empty stats = %d, want 0", got)
	}
}

// TestStatsDeltaKeepsGauges pins Delta's gauge semantics: Entries,
// Bytes and BudgetBytes are point-in-time values and keep the later
// snapshot's reading.
func TestStatsDeltaKeepsGauges(t *testing.T) {
	prev := Stats{Stats: lru.Stats{Hits: 2, Misses: 1, Entries: 1, Bytes: 100, BudgetBytes: 1000, Evictions: 1}}
	cur := Stats{Stats: lru.Stats{Hits: 5, Misses: 3, Entries: 2, Bytes: 250, BudgetBytes: 1000, Evictions: 1}}
	d := cur.Delta(prev)
	if d.Hits != 3 || d.Misses != 2 || d.Evictions != 0 {
		t.Errorf("counter deltas = %+v", d)
	}
	if d.Entries != 2 || d.Bytes != 250 || d.BudgetBytes != 1000 {
		t.Errorf("gauges changed by Delta: %+v", d)
	}
}

// TestHitsDoNotAccrueMaterializeTime: replay hits must leave the
// materialisation counters untouched.
func TestHitsDoNotAccrueMaterializeTime(t *testing.T) {
	ticks := []int64{0, 50}
	i := 0
	s := NewWithClock(0, func() int64 { n := ticks[i]; i++; return n })
	k := testKey("mcf", 400)
	if _, err := s.Get(k); err != nil {
		t.Fatal(err)
	}
	first := s.Stats()
	for n := 0; n < 3; n++ {
		if _, err := s.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	d := s.Stats().Delta(first)
	if d.Hits != 3 || d.Materializations != 0 || d.MaterializeNanos != 0 {
		t.Errorf("hit-only interval delta = %+v, want 3 hits and no materialisation movement", d)
	}
}
