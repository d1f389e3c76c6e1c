package sim

import (
	"math"
	"slices"
	"sync"
	"testing"

	"redhip/internal/energy"
	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// checkFlow asserts PAPER.md §1's walk rule as identities over a
// result's counts, for an inclusive hierarchy without prefetching: a
// predicted-absent L1 miss skips L2, L3 and L4 and goes straight to
// memory, and every other L1 miss walks the levels in order, so each
// level is looked up exactly once per miss of the level above.
func checkFlow(t *testing.T, r *Result) {
	t.Helper()
	lv := &r.Levels
	skipped := r.Pred.TrueNegative
	if r.Pred.FalseNegative != 0 {
		t.Errorf("%d false negatives", r.Pred.FalseNegative)
	}
	if got, want := lv[energy.L2].Lookups, lv[energy.L1].Misses-skipped; got != want {
		t.Errorf("L2 lookups %d, want L1 misses %d - predicted-absent %d = %d", got, lv[energy.L1].Misses, skipped, want)
	}
	if got, want := lv[energy.L3].Lookups, lv[energy.L2].Misses; got != want {
		t.Errorf("L3 lookups %d, want L2 misses %d", got, want)
	}
	if got, want := lv[energy.L4].Lookups, lv[energy.L3].Misses; got != want {
		t.Errorf("L4 lookups %d, want L3 misses %d", got, want)
	}
	if got, want := r.MemoryFetches, lv[energy.L4].Misses+skipped; got != want {
		t.Errorf("memory fetches %d, want L4 misses %d + predicted-absent %d = %d", got, lv[energy.L4].Misses, skipped, want)
	}
}

// energyCountTol bounds |energy ÷ per-access constant − count| relative
// to count. The identity is not exact in float64: the meter adds the
// constant once per access (and sums the per-core meters), so the
// quotient carries the rounding of every addition — at most 1.5e-12
// relative over the golden cases. 1e-9 leaves room for longer runs and
// still sits far below the 0.5 that would let a wrong count pass.
const energyCountTol = 1e-9

// checkEnergy asserts Table I accounting without prefetching: at each
// level, tag energy ÷ the level's tag energy per access = lookups, and
// data energy ÷ data energy per access = lookups — hits for Phased at
// L3 and L4, which read the data array only on a tag hit. A level whose
// constant is zero (the L1/L2 tag arrays) must have charged nothing.
func checkEnergy(t *testing.T, cfg Config, r *Result) {
	t.Helper()
	check := func(l energy.Level, array string, nj, perAccess float64, count uint64) {
		t.Helper()
		if perAccess == 0 {
			if nj != 0 {
				t.Errorf("%s %s energy %g nJ at zero nJ per access", l, array, nj)
			}
			return
		}
		n := float64(count)
		if q := nj / perAccess; math.Abs(q-n) > energyCountTol*max(n, 1) {
			t.Errorf("%s %s energy ÷ %g nJ = %.6f accesses, want %d", l, array, perAccess, q, count)
		}
	}
	for l := energy.L1; l < energy.NumLevels; l++ {
		st := r.Levels[l]
		check(l, "tag", r.Dynamic.TagNJ[l], cfg.Energy.Levels[l].TagNJ, st.Lookups)
		data := st.Lookups
		if cfg.Scheme == Phased && (l == energy.L3 || l == energy.L4) {
			data = st.Hits
		}
		check(l, "data", r.Dynamic.DataNJ[l], cfg.Energy.Levels[l].DataNJ, data)
	}
}

// TestFlowAndEnergyConservation checks the flow identities over the
// nine inclusive prefetch-off golden cases and the energy identities
// over all 22 prefetch-off cases, on every engine driver and source
// path: sim.Run; each golden group as one RunMulti pass whose engines
// take turns of a single refill; each group as a two-worker RunMulti
// pass at the default slice (a serve job's pass on a two-CPU replica)
// over live generators and over trace-store replays; and the
// measure window of a two-worker pass restored from warm snapshots.
func TestFlowAndEnergyConservation(t *testing.T) {
	check := func(t *testing.T, cfg Config, r *Result) {
		t.Helper()
		if cfg.Inclusion == Inclusive {
			checkFlow(t, r)
		}
		checkEnergy(t, cfg, r)
	}
	var flow, energyCases int
	for _, tc := range goldenCases {
		if tc.prefetch {
			continue
		}
		energyCases++
		if tc.incl == Inclusive {
			flow++
		}
		t.Run("run/"+tc.name(), func(t *testing.T) {
			cfg, _ := goldenConfig(tc.scheme, tc.incl, tc.prefetch, tc.recal, tc.cores)
			check(t, cfg, goldenRun(t, tc))
		})
	}
	if flow != 9 || energyCases != 22 {
		t.Fatalf("golden cases cover %d flow and %d energy checks, want 9 and 22", flow, energyCases)
	}

	for _, g := range goldenGroups() {
		if g.prefetch {
			continue
		}
		t.Run("sliced/"+goldenAxes(g.incl, g.prefetch, g.recal, g.cores), func(t *testing.T) {
			cfg, wl := goldenConfig(Base, g.incl, g.prefetch, g.recal, g.cores)
			srcs, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			engines, errs, _, err := buildPass(cfg, g.schemes, srcs, &MultiOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range engines {
				if e == nil {
					t.Fatalf("%s: %v", g.schemes[i], errs[i])
				}
			}
			done := make([]bool, len(engines))
			for running := len(engines); running > 0; {
				running = 0
				for i, e := range engines {
					if !done[i] {
						done[i] = e.run(1)
						if !done[i] {
							running++
						}
					}
				}
			}
			for i, e := range engines {
				if e.halt != nil || e.runErr != nil {
					t.Fatalf("%s: halt %v, run error %v", g.schemes[i], e.halt, e.runErr)
				}
				t.Run(g.schemes[i].String(), func(t *testing.T) {
					check(t, cfg.WithScheme(g.schemes[i]), e.res)
				})
			}
		})
	}

	checkPass := func(t *testing.T, cfg Config, schemes []Scheme, results []*Result) {
		t.Helper()
		for i, sc := range schemes {
			t.Run(sc.String(), func(t *testing.T) {
				check(t, cfg.WithScheme(sc), results[i])
			})
		}
	}
	store := tracestore.New(0)
	for _, g := range goldenGroups() {
		if g.prefetch {
			continue
		}
		axes := goldenAxes(g.incl, g.prefetch, g.recal, g.cores)
		for _, path := range []string{"live", "replay"} {
			t.Run("par=2/"+path+"/"+axes, func(t *testing.T) {
				cfg, wl := goldenConfig(Base, g.incl, g.prefetch, g.recal, g.cores)
				srcs := replaySources(t, store, cfg, wl)
				if path == "live" {
					var err error
					if srcs, err = workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 1); err != nil {
						t.Fatal(err)
					}
				}
				results, err := RunMultiOpt(cfg, g.schemes, srcs, MultiOptions{Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				checkPass(t, cfg, g.schemes, results)
			})
		}
		t.Run("par=2/restore/"+axes, func(t *testing.T) {
			cfg, wl := snapCfg(Base, g.incl, g.prefetch, g.recal, g.cores)
			var mu sync.Mutex
			blobs := make([][]byte, len(g.schemes))
			_, err := RunMultiOpt(cfg, g.schemes, replaySources(t, store, cfg, wl), MultiOptions{
				Parallelism:  2,
				SnapshotSeed: 1,
				SnapshotSink: func(sc Scheme, blob []byte) {
					mu.Lock()
					defer mu.Unlock()
					blobs[slices.Index(g.schemes, sc)] = blob
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunMultiOpt(cfg, g.schemes, replaySources(t, store, cfg, wl), MultiOptions{
				Parallelism:  2,
				Snapshots:    blobs,
				SnapshotSeed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Perf.RestoreNanos <= 0 {
					t.Fatalf("%s: pass was not restored from its snapshot", g.schemes[i])
				}
			}
			checkPass(t, cfg, g.schemes, results)
		})
	}
}
