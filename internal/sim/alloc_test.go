package sim

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"redhip/internal/redhipassert"
	"redhip/internal/trace"
	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// skipUnderAsserts documents the build-tag trade: redhipassert builds
// re-validate structural invariants after every mutation (Recalibrate
// cross-checks the whole table against the tag array, which allocates
// scratch), so the allocation-free guarantee is a production-build
// property and these tests only pin it there.
func skipUnderAsserts(t *testing.T) {
	t.Helper()
	if redhipassert.Enabled {
		t.Skip("redhipassert build trades allocation-freedom for invariant validation")
	}
}

// assertWindowAllocFree builds a one-slot engine over the replays (srcs
// may wrap them) and pins the steady-state contract of the simulation
// core: once the engine is built and its sources attached, replaying a
// measurement window — refills and runWindow — performs zero heap
// allocations. warmups untimed windows run first; AllocsPerRun then
// warms up with one more untimed call, which absorbs any lazy
// first-use growth. The measured windows must then allocate nothing.
func assertWindowAllocFree(t *testing.T, cfg Config, srcs []workload.Source, replays []*workload.TraceSource, warmups int) {
	t.Helper()
	e := newSoloEngine(t, cfg, srcs)
	e.quota = unsliced
	window := func() {
		e.beginWindow(cfg.RefsPerCore)
		e.runWindow()
		for _, r := range replays {
			r.Rewind()
		}
	}
	for range warmups {
		window()
	}
	if n := testing.AllocsPerRun(3, window); n != 0 {
		t.Errorf("%s steady-state window allocated %.0f times per run, want 0", cfg.Scheme, n)
	}
}

// captureReplays records cfg.RefsPerCore references per core of a
// workload into in-memory trace replays.
func captureReplays(t *testing.T, cfg Config, wl string) []*workload.TraceSource {
	t.Helper()
	gen, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	replays := make([]*workload.TraceSource, cfg.Cores)
	for c := range replays {
		replays[c] = workload.FromTrace(workload.Capture(gen[c], int(cfg.RefsPerCore)))
	}
	return replays
}

// TestRunLoopAllocationFree pins zero allocations per steady-state
// window for every scheme over zero-copy views of in-memory trace
// replays, so workload generation can neither hide an engine
// allocation nor contribute one of its own. The eight-core ReDHiP case
// recalibrates every 2000 L1 misses, so the scheduler rebuild runs many
// times inside each window. The prefetch cases run lbm's strided
// streams, so the prefetched-block filter grows: it reaches its
// high-water size only when the trace replays over the marks the
// first window left, so these cases run one extra untimed window.
func TestRunLoopAllocationFree(t *testing.T) {
	skipUnderAsserts(t)
	cases := []struct {
		name     string
		scheme   Scheme
		incl     InclusionPolicy
		prefetch bool
		cores    int
		recal    uint64
	}{
		{"base", Base, Inclusive, false, 4, 0},
		{"redhip", ReDHiP, Inclusive, false, 4, 0},
		{"cbf", CBF, Inclusive, false, 4, 0},
		{"oracle", Oracle, Inclusive, false, 4, 0},
		{"redhip/cores=8", ReDHiP, Inclusive, false, 8, 2000},
		{"base+sp/inclusive", Base, Inclusive, true, 4, 0},
		{"redhip+sp/inclusive", ReDHiP, Inclusive, true, 4, 0},
		{"base+sp/hybrid", Base, Hybrid, true, 4, 0},
		{"redhip+sp/hybrid", ReDHiP, Hybrid, true, 4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, _ := goldenConfig(tc.scheme, tc.incl, tc.prefetch, tc.recal, tc.cores)
			cfg.RefsPerCore = 20_000
			wl := "mcf"
			if tc.prefetch {
				wl = "lbm"
			}
			replays := captureReplays(t, cfg, wl)
			srcs := make([]workload.Source, len(replays))
			for c, r := range replays {
				srcs[c] = r
			}
			warmups := 0
			if tc.prefetch {
				warmups = 1
			}
			assertWindowAllocFree(t, cfg, srcs, replays, warmups)
		})
	}
}

// TestPrefetchEngineBuildBytes pins what building a prefetch engine
// allocates: the prefetched-block filter starts small, so a smoke
// geometry engine stays under 1 MiB. The dense 2^20-slot filter it
// replaced was 8 MiB by itself.
func TestPrefetchEngineBuildBytes(t *testing.T) {
	cfg, _ := goldenConfig(ReDHiP, Inclusive, true, 0, 0)
	srcs, err := workload.Sources("lbm", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	e, err := newMultiEngine(cfg, srcs, nil)
	metrics.Read(sample)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(e)
	if n := sample[0].Value.Uint64() - before; n > 1<<20 {
		t.Errorf("building a prefetch engine allocated %d bytes, want at most 1 MiB", n)
	}
}

// batchOnlySource hides TraceSource's Window method, forcing the engine
// onto the copying NextBatch path that live generators use.
type batchOnlySource struct{ ts *workload.TraceSource }

func (b batchOnlySource) Name() string                     { return b.ts.Name() }
func (b batchOnlySource) CPI() float64                     { return b.ts.CPI() }
func (b batchOnlySource) Next(rec *trace.Record) bool      { return b.ts.Next(rec) }
func (b batchOnlySource) NextBatch(buf []trace.Record) int { return b.ts.NextBatch(buf) }

// TestBatchRefillAllocationFree pins the copying refill path:
// bulk-generating blocks through NextBatch into the engine's per-core
// buffers performs zero heap allocations per window. The sources
// deliberately do not expose Window, so this exercises exactly the
// path live generator sources take. The window spans many blocks, so
// every buffer is refilled mid-window.
func TestBatchRefillAllocationFree(t *testing.T) {
	skipUnderAsserts(t)
	for _, cores := range []int{4, 8} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			cfg := Smoke()
			cfg.Cores = cores
			cfg.RefsPerCore = 20 * batchRefs
			replays := captureReplays(t, cfg, "mcf")
			srcs := make([]workload.Source, len(replays))
			for c, r := range replays {
				srcs[c] = batchOnlySource{r}
			}
			assertWindowAllocFree(t, cfg, srcs, replays, 0)
		})
	}
}

// TestMaterializedReplayAllocationFree pins the zero-copy replay path:
// an engine fed from a trace-store Materialized entry (the scheme-sweep
// configuration) runs its windows without heap allocations — blocks
// are slice views of the shared backing records.
func TestMaterializedReplayAllocationFree(t *testing.T) {
	skipUnderAsserts(t)
	cfg := Smoke()
	cfg.RefsPerCore = 20_000

	store := tracestore.New(0)
	mat, err := store.Get(tracestore.Key{
		Workload:    "mcf",
		Cores:       cfg.Cores,
		Scale:       cfg.WorkloadScale,
		Seed:        1,
		RefsPerCore: cfg.WarmupRefsPerCore + cfg.RefsPerCore,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs := mat.Sources()
	replays := make([]*workload.TraceSource, len(srcs))
	for i, s := range srcs {
		replays[i] = s.(*workload.TraceSource)
	}
	assertWindowAllocFree(t, cfg, srcs, replays, 0)
}

// TestPassReportsAllocations pins the allocation counters of a pass
// that allocates: a two-scheme pass over live generators materialises
// one replay per core before it runs, so every result must report a
// non-zero share of bytes and objects. The counters are read from
// runtime/metrics, where a replay this size is a large object counted
// the moment it is allocated.
func TestPassReportsAllocations(t *testing.T) {
	cfg := Smoke()
	srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMulti(cfg, []Scheme{Base, ReDHiP}, srcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Perf.AllocBytes == 0 || r.Perf.Mallocs == 0 {
			t.Errorf("%s: AllocBytes %d, Mallocs %d; want both > 0", r.Scheme, r.Perf.AllocBytes, r.Perf.Mallocs)
		}
	}
}
