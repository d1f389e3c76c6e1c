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

// Replay must be bit-identical to live generation: every workload's
// cursors reproduce the live per-core records (same constructor, same
// seed, same order) through each read path — Next, NextBatch, and the
// zero-copy Window plus Offset — while the entry charges only its
// layout's distinct streams.
func TestReplayMatchesLiveGeneration(t *testing.T) {
	const refs, block = 1500, 333
	for _, name := range append(workload.BenchmarkNames(), "computebound") {
		for _, cores := range []int{1, 4, 8, 12} {
			k := Key{Workload: name, Cores: cores, Scale: 64, Seed: 3, RefsPerCore: refs}
			mat, err := New(0).Get(k)
			if err != nil {
				t.Fatal(err)
			}
			l, err := workload.NewLayout(name, cores, k.Scale, k.Seed)
			if err != nil {
				t.Fatal(err)
			}
			foot, err := Footprint(k)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(len(l.Streams)) * refs * RecordBytes; mat.Bytes() != want || foot != want {
				t.Fatalf("%s: Bytes %d, Footprint %d, want %d (%d streams)", k, mat.Bytes(), foot, want, len(l.Streams))
			}
			live, err := workload.Sources(name, cores, k.Scale, k.Seed)
			if err != nil {
				t.Fatal(err)
			}
			for c := range live {
				want := workload.Capture(live[c], refs).Records

				next := mat.Sources()[c]
				if next.Name() != live[c].Name() || next.CPI() != live[c].CPI() {
					t.Fatalf("%s core %d: replay is %s/%v, live %s/%v", k, c, next.Name(), next.CPI(), live[c].Name(), live[c].CPI())
				}
				var got []trace.Record
				for rec := (trace.Record{}); next.Next(&rec); {
					got = append(got, rec)
				}
				sameRecords(t, k, c, "Next", got, want)

				batch := mat.Sources()[c].(workload.BatchSource)
				got = nil
				buf := make([]trace.Record, block)
				for n := batch.NextBatch(buf); n > 0; n = batch.NextBatch(buf) {
					got = append(got, buf[:n]...)
				}
				sameRecords(t, k, c, "NextBatch", got, want)

				win := mat.Sources()[c].(*workload.TraceSource)
				got = nil
				for w := win.Window(block); len(w) > 0; w = win.Window(block) {
					for _, rec := range w {
						rec.Addr += win.Offset()
						got = append(got, rec)
					}
				}
				sameRecords(t, k, c, "Window+Offset", got, want)
			}
		}
	}
}

func sameRecords(t *testing.T, k Key, core int, path string, got, want []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s core %d %s: %d records, want %d", k, core, path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s core %d %s record %d: replay %+v, live %+v", k, core, path, i, got[i], want[i])
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
	ka, kb, kc := testKey("mcf", refs), testKey("milc", refs), testKey("lbm", refs)
	perEntry := entryBytes(t, ka)
	for _, k := range []Key{kb, kc} {
		if b := entryBytes(t, k); b != perEntry {
			t.Fatalf("%s charges %d bytes, %s %d: the budget below assumes equal entries", k, b, ka, perEntry)
		}
	}
	st := New(2 * perEntry) // room for exactly two entries

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

// entryBytes returns what the store charges for k's entry, read from a
// fresh store's materialisation.
func entryBytes(t *testing.T, k Key) uint64 {
	t.Helper()
	mat, err := New(0).Get(k)
	if err != nil {
		t.Fatal(err)
	}
	return mat.Bytes()
}

// An entry larger than the whole budget is returned but never cached,
// so it cannot wipe out every resident entry on its way through.
func TestOversizeEntryNotRetained(t *testing.T) {
	const refs = 1000
	st := New(entryBytes(t, testKey("mcf", refs))) // exactly one small entry fits

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

// TestEvictionUnderConcurrentReplayRAM pins that records handed to a
// running replay stay valid after their entry is evicted mid-replay.
func TestEvictionUnderConcurrentReplayRAM(t *testing.T) {
	const refs = 4000
	s := New(entryBytes(t, testKey("mcf", refs))) // one entry fits
	mat, err := s.Get(testKey("mcf", refs))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]trace.Record, refs)
	if n := mat.Sources()[0].(workload.BatchSource).NextBatch(want); n != refs {
		t.Fatalf("replay holds %d records, want %d", n, refs)
	}
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
