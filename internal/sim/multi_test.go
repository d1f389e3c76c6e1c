package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"redhip/internal/workload"
)

// multiTestGeometries returns the two geometries the RunMulti property
// test sweeps: plain smoke, and a warmup-bearing two-core variant that
// exercises the warmup window → measurement window reset in every
// engine of the pass.
func multiTestGeometries() map[string]Config {
	warm := Smoke()
	warm.Cores = 2
	warm.RefsPerCore = 20_000
	warm.WarmupRefsPerCore = 5_000
	return map[string]Config{
		"smoke":  Smoke(),
		"warmup": warm,
	}
}

// validSchemes filters Schemes() to those cfg accepts (CBF is rejected
// under Exclusive).
func validSchemes(cfg Config) []Scheme {
	var out []Scheme
	for _, sc := range Schemes() {
		c := cfg.WithScheme(sc)
		if c.Validate() == nil {
			out = append(out, sc)
		}
	}
	return out
}

// stripPerf zeroes the wall-clock performance block, the only Result
// field RunMulti is allowed to report differently from Run.
func stripPerf(r *Result) *Result {
	cp := *r
	cp.Perf = PerfStats{}
	return &cp
}

// TestRunMultiMatchesRun is the field-for-field equivalence property:
// one RunMulti pass over N schemes must produce Results identical
// (Perf excluded) to N independent Run calls over equivalent sources,
// across seeds, geometries and every valid scheme set.
func TestRunMultiMatchesRun(t *testing.T) {
	for geoName, cfg := range multiTestGeometries() {
		for _, incl := range []InclusionPolicy{Inclusive, Hybrid, Exclusive} {
			for _, seed := range []uint64{1, 7} {
				cfg := cfg.WithInclusion(incl)
				name := fmt.Sprintf("%s/%s/seed=%d", geoName, incl, seed)
				t.Run(name, func(t *testing.T) {
					schemes := validSchemes(cfg)
					want := make([]*Result, len(schemes))
					for i, sc := range schemes {
						srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, seed)
						if err != nil {
							t.Fatal(err)
						}
						res, err := Run(cfg.WithScheme(sc), srcs)
						if err != nil {
							t.Fatalf("Run(%s): %v", sc, err)
						}
						want[i] = res
					}
					srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunMulti(cfg, schemes, srcs)
					if err != nil {
						t.Fatalf("RunMulti: %v", err)
					}
					for i, sc := range schemes {
						if got[i] == nil {
							t.Fatalf("%s: nil result without error", sc)
						}
						g, w := stripPerf(got[i]), stripPerf(want[i])
						if !reflect.DeepEqual(g, w) {
							t.Errorf("%s: RunMulti result differs from Run:\n got %+v\nwant %+v", sc, g, w)
						}
					}
				})
			}
		}
	}
}

// TestRunMultiInvalidSlot pins the per-slot failure contract: one
// invalid scheme/inclusion combination (CBF under Exclusive) fails its
// own slot only, while the valid schemes in the same pass complete.
func TestRunMultiInvalidSlot(t *testing.T) {
	cfg := Smoke().WithInclusion(Exclusive)
	srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []Scheme{Base, CBF, ReDHiP}
	results, err := RunMulti(cfg, schemes, srcs)
	if err == nil {
		t.Fatal("RunMulti accepted CBF under Exclusive")
	}
	if results[1] != nil {
		t.Errorf("invalid CBF slot returned a result")
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil {
			t.Errorf("%s: valid slot failed alongside the invalid one", schemes[i])
		}
	}
}

// TestRunMultiInterrupt pins the abort path: a failing Interrupt poll
// stops the pass before completion with no results, both for a solo
// pass (what serve job timeouts rely on) and for a two-scheme pass,
// whose engines poll from concurrent workers.
func TestRunMultiInterrupt(t *testing.T) {
	cfg := Smoke()
	wantErr := errors.New("deadline exceeded")
	for _, schemes := range [][]Scheme{{ReDHiP}, {Base, ReDHiP}} {
		t.Run(fmt.Sprintf("width=%d", len(schemes)), func(t *testing.T) {
			srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			var polls atomic.Int64
			results, err := RunMultiOpt(cfg, schemes, srcs, MultiOptions{
				Parallelism: 2,
				Interrupt: func() error {
					if polls.Add(1) > 1 {
						return wantErr
					}
					return nil
				},
			})
			if !errors.Is(err, wantErr) || results != nil {
				t.Fatalf("interrupted pass returned results=%v err=%v", results, err)
			}
		})
	}
}

// TestRunMultiRaceAtNumCPU drives RunMulti at full machine parallelism
// over live sources; under -race (the CI pass) this checks that the
// engines' forked cursors over one materialisation share nothing
// mutable, and in any mode it re-checks bit-identity against the
// sequential engine at whatever worker count the host provides.
func TestRunMultiRaceAtNumCPU(t *testing.T) {
	cfg := Smoke()
	schemes := validSchemes(cfg)
	srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMultiOpt(cfg, schemes, srcs, MultiOptions{Parallelism: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range schemes {
		srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(cfg.WithScheme(sc), srcs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripPerf(got[i]), stripPerf(want)) {
			t.Errorf("%s: RunMulti at NumCPU diverged from sequential Run", sc)
		}
	}
}
