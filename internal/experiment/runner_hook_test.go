package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"

	"redhip/internal/sim"
)

// TestOnRunHook: every executed run fires OnRun exactly once with the
// run's identity and result; memoised re-requests do not re-fire it.
func TestOnRunHook(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 2_000
	schemes := []sim.Scheme{sim.Base, sim.ReDHiP}

	var mu sync.Mutex
	var updates []RunUpdate
	r := mustRunner(t, Options{
		Base:        cfg,
		Workloads:   []string{"mcf"},
		Parallelism: 1,
		OnRun: func(u RunUpdate) {
			mu.Lock()
			updates = append(updates, u)
			mu.Unlock()
		},
	})
	if _, err := r.SchemeSweep("mcf", schemes); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 {
		t.Fatalf("OnRun fired %d times, want 2", len(updates))
	}
	for i, u := range updates {
		if u.Err != nil || u.Result == nil {
			t.Fatalf("update %d: err=%v result=%v", i, u.Err, u.Result)
		}
		if u.Workload != "mcf" || u.Scheme != schemes[i] {
			t.Fatalf("update %d = %s/%s, want mcf/%s", i, u.Workload, u.Scheme, schemes[i])
		}
		if u.Completed != i+1 {
			t.Fatalf("update %d Completed = %d, want %d", i, u.Completed, i+1)
		}
	}

	// The second sweep is fully memoised: no new hook firings.
	if _, err := r.SchemeSweep("mcf", schemes); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 {
		t.Fatalf("memoised sweep re-fired OnRun: %d updates", len(updates))
	}
}

// TestContextCancellation: a cancelled context stops the runner before
// it executes anything and surfaces the context error.
func TestContextCancellation(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 2_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts

	fired := false
	r := mustRunner(t, Options{
		Base:      cfg,
		Workloads: []string{"mcf"},
		Context:   ctx,
		OnRun:     func(RunUpdate) { fired = true },
	})
	_, err := r.SchemeSweep("mcf", sim.Schemes())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SchemeSweep with cancelled context = %v, want context.Canceled", err)
	}
	if fired {
		t.Fatal("OnRun fired despite cancelled context")
	}
	if n := r.CacheSize(); n != 0 {
		t.Fatalf("cancelled runner memoised %d runs", n)
	}
}

// poolJobs builds one figure-pool job per scheme at base.
func poolJobs(base sim.Config, wl string, schemes []sim.Scheme) []job {
	jobs := make([]job, len(schemes))
	for i, sc := range schemes {
		jobs[i] = job{workload: wl, cfg: base.WithScheme(sc)}
	}
	return jobs
}

// TestContextCancellationMidSweep: cancelling from the OnRun hook stops
// the remaining jobs of the same figure-pool batch. Each pool job is a
// one-scheme pass; the multi-scheme sweep runs as one pass, so its
// cancellation granularity is the engine's refill block, covered by
// TestContextCancellationSinglePass and sim's interrupt test.
func TestContextCancellationMidSweep(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 2_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var completed int
	r := mustRunner(t, Options{
		Base:        cfg,
		Workloads:   []string{"mcf"},
		Parallelism: 1,
		Context:     ctx,
		OnRun: func(u RunUpdate) {
			completed = u.Completed
			cancel() // stop after the first run
		},
	})
	err := r.run(poolJobs(cfg, "mcf", sim.Schemes()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancel = %v, want context.Canceled", err)
	}
	if completed != 1 {
		t.Fatalf("completed %d runs before cancel took effect, want 1", completed)
	}
	if n := r.CacheSize(); n >= len(sim.Schemes()) {
		t.Fatalf("cancelled batch still executed all %d runs", n)
	}
}

// TestContextCancellationSinglePass: on the single-pass path the sweep
// is one simulation, so a cancel fired from OnRun lands after the pass
// — its results are kept — but any subsequent sweep fails fast before
// starting a new pass.
func TestContextCancellationSinglePass(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 2_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	r := mustRunner(t, Options{
		Base:      cfg,
		Workloads: []string{"mcf"},
		Context:   ctx,
		OnRun:     func(RunUpdate) { cancel() },
	})
	if _, err := r.SchemeSweep("mcf", sim.Schemes()); err != nil {
		t.Fatalf("sweep whose pass completed before the cancel: %v", err)
	}
	if n := r.CacheSize(); n != len(sim.Schemes()) {
		t.Fatalf("completed pass memoised %d runs, want %d", n, len(sim.Schemes()))
	}
	if _, err := r.SchemeSweep("milc", sim.Schemes()); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel sweep = %v, want context.Canceled", err)
	}
}
