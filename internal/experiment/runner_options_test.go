package experiment

import (
	"runtime"
	"testing"

	"redhip/internal/sim"
	"redhip/internal/workload"
)

func TestOptionsRejectNegativeParallelism(t *testing.T) {
	opts := Options{Parallelism: -1}
	if err := opts.Validate(); err == nil {
		t.Fatal("Validate accepted Parallelism = -1")
	}
	if _, err := NewRunner(Options{Parallelism: -3}); err == nil {
		t.Fatal("NewRunner accepted Parallelism = -3")
	}
}

func TestOptionsZeroParallelismDefaults(t *testing.T) {
	r := mustRunner(t, Options{})
	if want := runtime.GOMAXPROCS(0); r.opts.Parallelism != want {
		t.Fatalf("Parallelism defaulted to %d, want GOMAXPROCS(0) = %d", r.opts.Parallelism, want)
	}
}

// A scheme sweep must generate the workload stream exactly once and
// replay it for every scheme — and produce the same results a direct
// sim.Run over live generators does.
func TestSchemeSweepSharesOneGeneration(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 4_000
	schemes := sim.Schemes()

	cached := mustRunner(t, Options{Base: cfg, Seed: 1, Workloads: []string{"mcf"}})
	got, err := cached.SchemeSweep("mcf", schemes)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range schemes {
		srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg.WithScheme(sc), srcs)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].String() != want.String() {
			t.Errorf("%s: replayed sweep diverged from live generation:\n  replay: %s\n  live:   %s",
				sc, got[i], want)
		}
	}

	st := cached.TraceCacheStats()
	if st.Misses != 1 {
		t.Errorf("trace cache misses = %d, want 1 (one generation per key)", st.Misses)
	}
	// The single-pass engine pulls the materialised trace once for the
	// whole sweep (every scheme forks cursors over the one replay), so
	// no replay hits.
	if st.Hits != 0 {
		t.Errorf("trace cache hits = %d, want 0 (one Get per single-pass sweep)", st.Hits)
	}
}
