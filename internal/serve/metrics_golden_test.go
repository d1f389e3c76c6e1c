package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"redhip/internal/lru"
	"redhip/internal/simstate"
	"redhip/internal/tracestore"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestWritePromGolden pins serve's /metrics exposition byte for byte:
// every counter, gauge and histogram family rendered from a fixed,
// populated state — per-scheme run histograms, per-endpoint HTTP
// histograms with status-code counters and in-flight gauges, and the
// tracestore and simstate blocks. Regenerate with -update only when a
// family is deliberately added or renamed.
func TestWritePromGolden(t *testing.T) {
	m := newMetrics()
	// Every counter reads a distinct value: 1, 2, 3, … in exposition
	// order.
	for i, c := range m.counters {
		for n := 0; n <= i; n++ {
			c.Inc()
		}
	}
	m.observeRun("redhip", 0.0004)
	m.observeRun("redhip", 0.03)
	m.observeRun("base", 3)
	m.observeRun("base", 120)
	m.httpStart("jobs")
	m.httpDone("jobs", 202, 0.0002)
	m.httpStart("jobs")
	m.httpDone("jobs", 429, 0.002)
	m.httpStart("jobs")
	m.httpDone("jobs", 202, 0.7)
	m.httpStart("events")
	m.httpDone("events", 200, 12.5)
	m.httpStart("events")
	m.httpStart("metrics") // a scrape in flight, nothing finished yet

	g := gauges{
		QueueDepth: 3, InFlight: 2, StoredJobs: 17, StoredSweeps: 4,
		ActiveSweeps:   1,
		MemoryReserved: 1 << 20, MemoryBudget: 1 << 30, Ready: true,
	}
	ts := tracestore.Stats{
		Stats: lru.Stats{
			Hits: 30, Misses: 10, Evictions: 2, Entries: 5, Bytes: 4096, BudgetBytes: 1 << 26,
		},
		MaterializeNanos: 123456789, Materializations: 9,
	}
	ss := simstate.StoreStats{
		Stats: lru.Stats{
			Hits: 7, Misses: 3, Puts: 3, Evictions: 1, Entries: 2, Bytes: 65536, BudgetBytes: 1 << 24,
		},
		Restores: 7, RestoreNanos: 98765,
	}
	var buf bytes.Buffer
	m.writeProm(&buf, g, ts, true, ss, true)
	checkGolden(t, "metrics.golden", buf.Bytes())

	// The optional blocks drop out entirely when their stores are absent.
	buf.Reset()
	m.writeProm(&buf, g, ts, false, ss, false)
	checkGolden(t, "metrics_nostores.golden", buf.Bytes())
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
