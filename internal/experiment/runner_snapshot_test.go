package experiment

import (
	"encoding/json"
	"testing"

	"redhip/internal/sim"
	"redhip/internal/simstate"
)

// snapshotOpts is the tiny-runner geometry with a warmup window so the
// snapshot layer has a boundary to branch at.
func snapshotOpts() Options {
	cfg := sim.Smoke()
	cfg.WarmupRefsPerCore = 6_000
	cfg.RefsPerCore = 8_000
	return Options{
		Base:      cfg,
		Seed:      3,
		Workloads: []string{"mcf", "lbm"},
	}
}

// resultJSON canonicalises a result for comparison. Perf carries
// host-side timings and is excluded from JSON, so this covers exactly
// the deterministic simulation outputs the golden contract pins.
func resultJSON(t *testing.T, res *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// poolSweep runs one figure-pool job per scheme (each a one-scheme
// pass) and returns the results in scheme order.
func poolSweep(r *Runner, wl string, schemes []sim.Scheme) ([]*sim.Result, error) {
	return r.results(poolJobs(r.opts.Base, wl, schemes))
}

// TestRunnerSnapshotBranchBitIdentical pins the runner-level contract:
// enabling the snapshot store changes nothing about the results, on
// both the single-pass sweep and the figure job pool's one-scheme
// passes. bwaves runs before mix, whose core 0 also runs bwaves, so a
// warm key taken from the first source instead of the workload would
// hand mix bwaves' warm state.
func TestRunnerSnapshotBranchBitIdentical(t *testing.T) {
	schemes := []sim.Scheme{sim.Base, sim.ReDHiP, sim.Oracle}
	workloads := []string{"mcf", "bwaves", "mix"}
	for _, tc := range []struct {
		name  string
		sweep func(r *Runner, wl string, schemes []sim.Scheme) ([]*sim.Result, error)
	}{
		{"single-pass", (*Runner).SchemeSweep},
		{"per-scheme", poolSweep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := mustRunner(t, snapshotOpts())
			snapOpts := snapshotOpts()
			snapOpts.SnapshotCache = simstate.NewStore(64 << 20)
			snap := mustRunner(t, snapOpts)
			want := make(map[string][]*sim.Result)
			for _, wl := range workloads {
				res, err := tc.sweep(plain, wl, schemes)
				if err != nil {
					t.Fatal(err)
				}
				want[wl] = res
				got, err := tc.sweep(snap, wl, schemes)
				if err != nil {
					t.Fatal(err)
				}
				for i := range res {
					if a, b := resultJSON(t, res[i]), resultJSON(t, got[i]); a != b {
						t.Errorf("%s/%s: snapshot-branched result diverged\n got %s\nwant %s", wl, schemes[i], b, a)
					}
				}
			}
			st, ok := snap.SnapshotStats()
			if !ok {
				t.Fatal("SnapshotStats not ok with snapshotting enabled")
			}
			if st.Puts == 0 {
				t.Errorf("snapshot store saw no Puts after a warmed sweep: %+v", st)
			}

			// A second runner sharing the store must restore rather than
			// re-warm, and still match bit-for-bit.
			reuseOpts := snapshotOpts()
			reuseOpts.SnapshotCache = snap.snaps
			reuse := mustRunner(t, reuseOpts)
			for _, wl := range workloads {
				again, err := tc.sweep(reuse, wl, schemes)
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range want[wl] {
					if a, b := resultJSON(t, res), resultJSON(t, again[i]); a != b {
						t.Errorf("%s/%s: restored-from-shared-store result diverged", wl, schemes[i])
					}
				}
			}
			st2, _ := reuse.SnapshotStats()
			if st2.Hits <= st.Hits {
				t.Errorf("shared store hits did not grow: %d -> %d", st.Hits, st2.Hits)
			}
			if st2.Restores == 0 {
				t.Errorf("no restores recorded on the reuse pass: %+v", st2)
			}
		})
	}
}

// TestRunnerSnapshotMeasureVariants pins the branching win on the
// figure job pool: measure windows of different lengths share one warm
// lineage (the key zeroes RefsPerCore), so the second variant restores
// instead of re-warming.
func TestRunnerSnapshotMeasureVariants(t *testing.T) {
	store := simstate.NewStore(64 << 20)
	run := func(refs uint64) *sim.Result {
		opts := snapshotOpts()
		opts.Base.RefsPerCore = refs
		opts.SnapshotCache = store
		r := mustRunner(t, opts)
		res, err := poolSweep(r, "mcf", []sim.Scheme{sim.ReDHiP})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	short := run(8_000)
	long := run(12_000)
	if short.Refs == long.Refs {
		t.Fatal("variants collapsed to the same measure window")
	}
	st := store.Stats()
	if st.Puts != 1 {
		t.Errorf("Puts = %d, want 1 (one warm lineage across variants)", st.Puts)
	}
	if st.Hits == 0 {
		t.Errorf("second variant did not hit the shared warm state: %+v", st)
	}

	// Each variant must match its own straight-through cold run.
	for _, tc := range []struct {
		refs uint64
		res  *sim.Result
	}{{8_000, short}, {12_000, long}} {
		opts := snapshotOpts()
		opts.Base.RefsPerCore = tc.refs
		r := mustRunner(t, opts)
		cold, err := poolSweep(r, "mcf", []sim.Scheme{sim.ReDHiP})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := resultJSON(t, cold[0]), resultJSON(t, tc.res); a != b {
			t.Errorf("refs=%d: branched variant diverged from cold run", tc.refs)
		}
	}
}

// TestRunnerSnapshotDisabledStats pins the ok=false contract.
func TestRunnerSnapshotDisabledStats(t *testing.T) {
	r := mustRunner(t, snapshotOpts())
	if _, ok := r.SnapshotStats(); ok {
		t.Fatal("SnapshotStats ok without a snapshot store")
	}
}
