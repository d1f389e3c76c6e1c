package tracestore

import (
	"runtime"
	"sync"
	"testing"

	"redhip/internal/trace"
	"redhip/internal/workload"
)

func testKey(workloadName string, refs uint64) Key {
	return Key{Workload: workloadName, Cores: 2, Scale: 64, Seed: 1, RefsPerCore: refs}
}

// Replay must be bit-identical to live generation: same workload
// constructor, same seed, same records in the same order.
func TestReplayMatchesLiveGeneration(t *testing.T) {
	k := testKey("mcf", 5000)
	st := New(0)
	mat, err := st.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	live, err := workload.Sources(k.Workload, k.Cores, k.Scale, k.Seed)
	if err != nil {
		t.Fatal(err)
	}
	replay := mat.Sources()
	if len(replay) != k.Cores {
		t.Fatalf("Sources returned %d cursors, want %d", len(replay), k.Cores)
	}
	var want, got trace.Record
	for c := 0; c < k.Cores; c++ {
		if replay[c].Name() != live[c].Name() || replay[c].CPI() != live[c].CPI() {
			t.Fatalf("core %d metadata mismatch: %s/%v vs %s/%v",
				c, replay[c].Name(), replay[c].CPI(), live[c].Name(), live[c].CPI())
		}
		for i := uint64(0); i < k.RefsPerCore; i++ {
			if !live[c].Next(&want) {
				t.Fatalf("core %d: live source ended at %d", c, i)
			}
			if !replay[c].Next(&got) {
				t.Fatalf("core %d: replay ended at %d, want %d records", c, i, k.RefsPerCore)
			}
			if got != want {
				t.Fatalf("core %d record %d: replay %+v, live %+v", c, i, got, want)
			}
		}
		if replay[c].Next(&got) {
			t.Fatalf("core %d: replay produced more than %d records", c, k.RefsPerCore)
		}
	}
}

// Concurrent Gets for one key must share a single materialisation.
func TestSingleFlight(t *testing.T) {
	st := New(0)
	k := testKey("milc", 2000)
	const callers = 16
	mats := make([]*Materialized, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := st.Get(k)
			if err != nil {
				t.Error(err)
				return
			}
			mats[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if mats[i] != mats[0] {
			t.Fatalf("caller %d got a different Materialized than caller 0", i)
		}
	}
	s := st.Stats()
	if s.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 (generation must run once per key)", s.Misses)
	}
	if s.Hits != callers-1 {
		t.Fatalf("Hits = %d, want %d", s.Hits, callers-1)
	}
}

func TestGetError(t *testing.T) {
	st := New(0)
	k := testKey("no-such-workload", 100)
	if _, err := st.Get(k); err == nil {
		t.Fatal("Get of unknown workload succeeded")
	}
	if got := st.Stats().Entries; got != 0 {
		t.Fatalf("failed materialisation left %d entries cached", got)
	}
	// The failure must not poison the key.
	if _, err := st.Get(k); err == nil {
		t.Fatal("second Get of unknown workload succeeded")
	}
}

func TestLRUEviction(t *testing.T) {
	const refs = 1000
	perEntry := uint64(testKeyCores(t)) * refs * RecordBytes
	st := New(2 * perEntry) // room for exactly two entries

	ka, kb, kc := testKey("mcf", refs), testKey("milc", refs), testKey("lbm", refs)
	for _, k := range []Key{ka, kb} {
		if _, err := st.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Get(ka); err != nil { // touch A so B is the LRU
		t.Fatal(err)
	}
	if _, err := st.Get(kc); err != nil { // must evict B
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("after overflow: evictions=%d entries=%d, want 1 and 2", s.Evictions, s.Entries)
	}
	if s.Bytes > s.BudgetBytes {
		t.Fatalf("resident bytes %d exceed budget %d", s.Bytes, s.BudgetBytes)
	}
	misses := s.Misses
	if _, err := st.Get(ka); err != nil { // A must still be resident
		t.Fatal(err)
	}
	if st.Stats().Misses != misses {
		t.Fatal("touching A after eviction re-materialised it; B should have been evicted instead")
	}
	if _, err := st.Get(kb); err != nil { // B was evicted: regenerates
		t.Fatal(err)
	}
	if st.Stats().Misses != misses+1 {
		t.Fatal("evicted B did not re-materialise on Get")
	}
}

func testKeyCores(t *testing.T) int {
	t.Helper()
	return testKey("x", 0).Cores
}

// An entry larger than the whole budget is returned but never cached,
// so it cannot wipe out every resident entry on its way through.
func TestOversizeEntryNotRetained(t *testing.T) {
	const refs = 1000
	perEntry := uint64(testKeyCores(t)) * refs * RecordBytes
	st := New(perEntry) // exactly one small entry fits

	if _, err := st.Get(testKey("mcf", refs)); err != nil {
		t.Fatal(err)
	}
	big, err := st.Get(testKey("milc", 10*refs))
	if err != nil {
		t.Fatal(err)
	}
	if got := big.Refs(0); got != 10*refs {
		t.Fatalf("oversize entry materialised %d refs, want %d", got, 10*refs)
	}
	s := st.Stats()
	if s.Entries != 1 {
		t.Fatalf("entries = %d after oversize Get, want 1 (the small entry)", s.Entries)
	}
	misses := s.Misses
	if _, err := st.Get(testKey("mcf", refs)); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Misses != misses {
		t.Fatal("oversize entry evicted the resident small entry")
	}
}

func TestTraceExportSharesRecords(t *testing.T) {
	st := New(0)
	mat, err := st.Get(testKey("mcf", 500))
	if err != nil {
		t.Fatal(err)
	}
	tr := mat.Trace(1)
	if tr.Name != "mcf" || len(tr.Records) != 500 {
		t.Fatalf("Trace(1) = %q/%d records, want mcf/500", tr.Name, len(tr.Records))
	}
	if &tr.Records[0] != &mat.cores[1].Records[0] {
		t.Fatal("Trace copied the records; it must share the backing slice")
	}
}

// TestEvictionUnderConcurrentReplayRAM pins that records handed to a
// running replay stay valid after their entry is evicted mid-replay.
func TestEvictionUnderConcurrentReplayRAM(t *testing.T) {
	const refs = 4000
	s := New(2 * refs * RecordBytes) // one two-core stream fits
	mat, err := s.Get(testKey("mcf", refs))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]trace.Record(nil), mat.cores[0].Records...)
	srcs := mat.Sources()

	// Replay halfway, then evict the entry while the cursors are live.
	var rec trace.Record
	for i := 0; i < refs/2; i++ {
		if !srcs[0].Next(&rec) {
			t.Fatalf("stream ended early at %d", i)
		}
	}
	if _, err := s.Get(testKey("milc", refs)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	runtime.GC() // must not reclaim the records the cursors still hold

	for i := refs / 2; i < refs; i++ {
		if !srcs[0].Next(&rec) {
			t.Fatalf("stream ended at %d after eviction", i)
		}
		if rec != want[i] {
			t.Fatalf("record %d changed after eviction: %+v, want %+v", i, rec, want[i])
		}
	}
}
