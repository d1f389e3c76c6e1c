//go:build faultinject

package experiment

import (
	"errors"
	"strings"
	"testing"

	"redhip/internal/faultinject"
	"redhip/internal/sim"
)

// faultOptions is a one-worker runner with the given injector. The
// figure job pool (run/results) evaluates the injection point once
// per job, the granularity the first three contracts are written
// against; SchemeSweep evaluates it once per pass and fails every
// pending scheme together — covered by the SinglePass variants below.
func faultOptions(in *faultinject.Injector) Options {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 1_000
	return Options{Base: cfg, Seed: 1, Workloads: []string{"mcf"}, Parallelism: 1, Fault: in}
}

// TestInjectedRunError: an Options.Fault error rule fails exactly the
// scheduled run; once exhausted, a fresh runner completes the same
// sweep cleanly.
func TestInjectedRunError(t *testing.T) {
	in := faultinject.New(3, faultinject.Rule{
		Point: faultinject.PointExperimentRun,
		Times: 1,
		Err:   "transient run failure",
	})
	r := mustRunner(t, faultOptions(in))
	if err := r.run(poolJobs(r.opts.Base, "mcf", sim.Schemes())); !faultinject.IsInjected(err) {
		t.Fatalf("pool error = %v, want the injected failure", err)
	}
	if n := r.CacheSize(); n != len(sim.Schemes())-1 {
		t.Fatalf("pool memoised %d results, want every run but the failed one (%d)", n, len(sim.Schemes())-1)
	}
	// Rule exhausted: a fresh runner (fresh memo cache) succeeds.
	r2 := mustRunner(t, faultOptions(in))
	if err := r2.run(poolJobs(r2.opts.Base, "mcf", sim.Schemes())); err != nil {
		t.Fatalf("post-exhaustion pool: %v", err)
	}
	if n := r2.CacheSize(); n != len(sim.Schemes()) {
		t.Fatalf("post-exhaustion pool memoised %d results", n)
	}
}

// TestInjectedRunPanicIsolated: an injected panic inside a run is
// recovered into *PanicError — the pool goroutine survives, the error
// carries a stack, and the runner remains usable.
func TestInjectedRunPanicIsolated(t *testing.T) {
	in := faultinject.New(5, faultinject.Rule{
		Point: faultinject.PointExperimentRun,
		Times: 1,
		Panic: "injected run panic",
	})
	r := mustRunner(t, faultOptions(in))
	err := r.run(poolJobs(r.opts.Base, "mcf", sim.Schemes()))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("pool error = %v (%T), want *PanicError", err, err)
	}
	if !strings.Contains(pe.Error(), "injected run panic") {
		t.Fatalf("PanicError = %q, want injected message", pe.Error())
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("PanicError.Stack missing or malformed: %q", pe.Stack)
	}
	// The runner survived the panic: the un-poisoned schemes are still
	// runnable on the same instance.
	last := poolJobs(r.opts.Base, "mcf", sim.Schemes()[len(sim.Schemes())-1:])[0]
	if _, err := r.results([]job{last}); err != nil {
		t.Fatalf("runner unusable after recovered panic: %v", err)
	}
}

// TestOnRunSeesInjectedFailure: the structured hook observes injected
// run errors like organic ones — serve's per-run progress events feed on
// exactly this.
func TestOnRunSeesInjectedFailure(t *testing.T) {
	in := faultinject.New(9, faultinject.Rule{
		Point: faultinject.PointExperimentRun,
		Times: 1,
		Err:   "boom",
	})
	opts := faultOptions(in)
	var failed int
	opts.OnRun = func(u RunUpdate) {
		if u.Err != nil {
			failed++
		}
	}
	r := mustRunner(t, opts)
	if err := r.run(poolJobs(r.opts.Base, "mcf", sim.Schemes())); err == nil {
		t.Fatalf("pool batch with injected failure succeeded")
	}
	if failed != 1 {
		t.Fatalf("OnRun observed %d failures, want 1", failed)
	}
}

// TestInjectedPassPanicSinglePass: on the single-pass path the pass is
// the failure unit — an injected panic fails every pending scheme with
// the same recovered *PanicError, and schemes already memoised before
// the fault are unaffected.
func TestInjectedPassPanicSinglePass(t *testing.T) {
	in := faultinject.New(5, faultinject.Rule{
		Point: faultinject.PointExperimentRun,
		Times: 1,
		Panic: "injected pass panic",
	})
	opts := faultOptions(in)
	var failed int
	opts.OnRun = func(u RunUpdate) {
		if u.Err != nil {
			failed++
		}
	}
	r := mustRunner(t, opts)
	_, err := r.SchemeSweep("mcf", sim.Schemes())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("SchemeSweep error = %v (%T), want *PanicError", err, err)
	}
	if !strings.Contains(pe.Error(), "injected pass panic") {
		t.Fatalf("PanicError = %q, want injected message", pe.Error())
	}
	if failed != len(sim.Schemes()) {
		t.Fatalf("OnRun observed %d failures, want every scheme of the failed pass (%d)", failed, len(sim.Schemes()))
	}
	// The runner survived: a different workload sweeps cleanly on the
	// same instance once the rule is exhausted.
	if _, err := r.SchemeSweep("milc", sim.Schemes()); err != nil {
		t.Fatalf("runner unusable after recovered pass panic: %v", err)
	}
}

// TestInjectedPassErrorSinglePassFiresOncePerPass: the experiment.run
// injection point replaces N per-scheme evaluations with one per pass,
// so a Times:1 error rule fails exactly one pass and the next pass
// (same runner, different workload) completes.
func TestInjectedPassErrorSinglePassFiresOncePerPass(t *testing.T) {
	in := faultinject.New(7, faultinject.Rule{
		Point: faultinject.PointExperimentRun,
		Times: 1,
		Err:   "transient pass failure",
	})
	r := mustRunner(t, faultOptions(in))
	if _, err := r.SchemeSweep("mcf", sim.Schemes()); !faultinject.IsInjected(err) {
		t.Fatalf("SchemeSweep error = %v, want the injected failure", err)
	}
	res, err := r.SchemeSweep("milc", sim.Schemes())
	if err != nil {
		t.Fatalf("second pass after rule exhaustion: %v", err)
	}
	if len(res) != len(sim.Schemes()) {
		t.Fatalf("second pass returned %d results", len(res))
	}
}
