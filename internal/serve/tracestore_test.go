package serve

import (
	"net/http"
	"testing"
)

// TestTraceStoreDefaultBudget: a replica's trace store is bounded at
// DefaultTraceCacheBytes unless Options.TraceCacheBytes says otherwise.
func TestTraceStoreDefaultBudget(t *testing.T) {
	for _, c := range []struct{ opt, want uint64 }{
		{0, DefaultTraceCacheBytes},
		{1 << 30, 1 << 30},
	} {
		ts := newTestServer(t, Options{Workers: 1, TraceCacheBytes: c.opt})
		if got := ts.s.traces.Stats().BudgetBytes; got != c.want {
			t.Errorf("TraceCacheBytes %d: budget %d, want %d", c.opt, got, c.want)
		}
	}
}

// TestTraceStoreBoundsUniqueJobs: a replica serving unique jobs keeps
// its trace store within budget, and a later job that shares an
// earlier job's stream (same workload, seed and refs, other schemes)
// hits the store instead of materialising it again.
func TestTraceStoreBoundsUniqueJobs(t *testing.T) {
	spec := func(seed uint64, schemes ...string) Spec {
		s := smokeSpec()
		s.Seed = seed
		if len(schemes) > 0 {
			s.Schemes = schemes
		}
		return s
	}
	norm, err := spec(1).normalize()
	if err != nil {
		t.Fatal(err)
	}
	budget := 4 * norm.estimateTraceBytes() // the same for every seed
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, TraceCacheBytes: budget})
	run := func(s Spec) {
		t.Helper()
		ts.waitState(ts.submit(s, http.StatusAccepted).ID, StateDone)
	}

	for seed := uint64(1); seed <= 32; seed++ {
		run(spec(seed))
		if b := ts.s.traces.Stats().Bytes; b > budget {
			t.Fatalf("after %d unique jobs the trace store holds %d bytes, over its budget %d", seed, b, budget)
		}
	}

	before := ts.s.traces.Stats()
	run(spec(32, "cbf", "oracle"))
	if after := ts.s.traces.Stats(); after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Fatalf("a job sharing seed 32's stream: %d misses, %d hits, want %d and %d (a store hit)",
			after.Misses, after.Hits, before.Misses, before.Hits+1)
	}
}
