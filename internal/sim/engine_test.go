package sim

import (
	"testing"

	"redhip/internal/energy"
	"redhip/internal/memaddr"
	"redhip/internal/workload"
)

// runSmoke runs the tiny test configuration for one workload/scheme.
func runSmoke(t *testing.T, wl string, mutate func(*Config)) *Result {
	t.Helper()
	cfg := Smoke()
	if mutate != nil {
		mutate(&cfg)
	}
	srcs, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidatesInputs(t *testing.T) {
	cfg := Smoke()
	srcs, _ := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
	if _, err := Run(cfg, srcs[:1]); err == nil {
		t.Fatal("source/core mismatch accepted")
	}
	bad := cfg
	bad.Cores = 0
	if _, err := Run(bad, srcs); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Zero cores with no sources must fail validation before anything
	// indexes sources[0].
	if _, err := RunMulti(bad, Schemes(), nil); err == nil {
		t.Fatal("zero-core RunMulti accepted")
	}
}

func TestDeterminism(t *testing.T) {
	for _, scheme := range Schemes() {
		a := runSmoke(t, "mcf", func(c *Config) { c.Scheme = scheme })
		b := runSmoke(t, "mcf", func(c *Config) { c.Scheme = scheme })
		if a.Cycles != b.Cycles || a.DynamicNJ() != b.DynamicNJ() || a.Refs != b.Refs {
			t.Errorf("%v: nondeterministic results: %d/%d cycles", scheme, a.Cycles, b.Cycles)
		}
		if a.Pred != b.Pred {
			t.Errorf("%v: nondeterministic predictor stats", scheme)
		}
	}
}

func TestRefsAccounting(t *testing.T) {
	res := runSmoke(t, "soplex", nil)
	cfg := Smoke()
	if res.Refs != cfg.RefsPerCore*uint64(cfg.Cores) {
		t.Fatalf("refs = %d, want %d", res.Refs, cfg.RefsPerCore*uint64(cfg.Cores))
	}
	// Every reference performs exactly one L1 lookup.
	if res.Levels[energy.L1].Lookups != res.Refs {
		t.Fatalf("L1 lookups %d != refs %d", res.Levels[energy.L1].Lookups, res.Refs)
	}
	if res.L1Misses != res.Levels[energy.L1].Misses {
		t.Fatalf("L1Misses %d != L1 stats misses %d", res.L1Misses, res.Levels[energy.L1].Misses)
	}
}

func TestBaseWalkConservation(t *testing.T) {
	// In the base inclusive walk: every L1 miss looks up L2; every L2
	// miss looks up L3; every L3 miss looks up L4; every L4 miss
	// fetches from memory.
	res := runSmoke(t, "astar", func(c *Config) { c.Scheme = Base })
	l := res.Levels
	if l[energy.L2].Lookups != l[energy.L1].Misses {
		t.Errorf("L2 lookups %d != L1 misses %d", l[energy.L2].Lookups, l[energy.L1].Misses)
	}
	if l[energy.L3].Lookups != l[energy.L2].Misses {
		t.Errorf("L3 lookups %d != L2 misses %d", l[energy.L3].Lookups, l[energy.L2].Misses)
	}
	if l[energy.L4].Lookups != l[energy.L3].Misses {
		t.Errorf("L4 lookups %d != L3 misses %d", l[energy.L4].Lookups, l[energy.L3].Misses)
	}
	if res.MemoryFetches != l[energy.L4].Misses {
		t.Errorf("memory fetches %d != L4 misses %d", res.MemoryFetches, l[energy.L4].Misses)
	}
}

func TestOracleIsPerfect(t *testing.T) {
	res := runSmoke(t, "mcf", func(c *Config) { c.Scheme = Oracle })
	if res.Pred.FalsePositive != 0 || res.Pred.FalseNegative != 0 {
		t.Fatalf("oracle mispredicted: %+v", res.Pred)
	}
	if res.Pred.Lookups == 0 {
		t.Fatal("oracle never consulted")
	}
	// With a perfect predictor, L4 lookups happen only for resident
	// blocks: the L4 hit rate must be 100%.
	if hr := res.HitRate(energy.L4); res.Levels[energy.L4].Lookups > 0 && hr != 1 {
		t.Fatalf("oracle L4 hit rate %.3f, want 1.0", hr)
	}
}

func TestSchemeOrderings(t *testing.T) {
	// The qualitative relationships of Figures 6-8 must hold on a
	// memory-bound workload.
	results := map[Scheme]*Result{}
	for _, s := range Schemes() {
		results[s] = runSmoke(t, "mcf", func(c *Config) { c.Scheme = s })
	}
	base := results[Base]
	// Oracle is the performance upper bound.
	if results[Oracle].Cycles >= base.Cycles {
		t.Error("oracle not faster than base")
	}
	if results[ReDHiP].Cycles >= base.Cycles {
		t.Error("redhip not faster than base on memory-bound workload")
	}
	if results[Oracle].Cycles > results[ReDHiP].Cycles {
		// Oracle must be at least as fast as ReDHiP.
	} else if results[Oracle].Cycles == results[ReDHiP].Cycles {
		t.Log("oracle == redhip cycles (unusual but not wrong)")
	}
	if results[ReDHiP].Cycles > results[Phased].Cycles {
		t.Error("redhip slower than phased on memory-bound workload")
	}
	// Phased degrades performance (serialised hits).
	if results[Phased].Cycles <= base.Cycles {
		t.Error("phased not slower than base")
	}
	// Energy: every mechanism beats base; oracle is the bound.
	for _, s := range []Scheme{Phased, CBF, ReDHiP, Oracle} {
		if results[s].DynamicNJ() >= base.DynamicNJ() {
			t.Errorf("%v dynamic energy not below base", s)
		}
	}
	if results[Oracle].DynamicNJ() > results[ReDHiP].DynamicNJ() {
		t.Error("oracle dynamic energy above redhip")
	}
	// ReDHiP beats CBF at equal area (the paper's core claim).
	if results[ReDHiP].DynamicNJ() >= results[CBF].DynamicNJ() {
		t.Error("redhip dynamic energy not below cbf at equal area")
	}
	if results[ReDHiP].Pred.Accuracy() <= results[CBF].Pred.Accuracy() {
		t.Error("redhip accuracy not above cbf at equal area")
	}
}

func TestBaseAndPhasedSameHitRates(t *testing.T) {
	// Phased changes timing/energy, not placement: hit rates identical.
	a := runSmoke(t, "soplex", func(c *Config) { c.Scheme = Base })
	b := runSmoke(t, "soplex", func(c *Config) { c.Scheme = Phased })
	for l := energy.L1; l < energy.NumLevels; l++ {
		if a.Levels[l] != b.Levels[l] {
			t.Errorf("%v stats differ between base and phased", l)
		}
	}
}

func TestReDHiPNoFalseNegatives(t *testing.T) {
	// Run asserts internally; exercise all policies and workloads with
	// predictors to make the conservativeness check bite.
	for _, wl := range []string{"mcf", "lbm", "pmf", "mix"} {
		for _, pol := range []InclusionPolicy{Inclusive, Hybrid, Exclusive} {
			res := runSmoke(t, wl, func(c *Config) { c.Scheme = ReDHiP; c.Inclusion = pol })
			if res.Pred.FalseNegative != 0 {
				t.Errorf("%s/%v: %d false negatives", wl, pol, res.Pred.FalseNegative)
			}
		}
	}
}

func TestRecalibrationCadence(t *testing.T) {
	res := runSmoke(t, "mcf", func(c *Config) { c.Scheme = ReDHiP })
	cfg := Smoke()
	want := res.L1Misses / cfg.RecalPeriod
	got := res.Pred.Recalibrations
	if got < want-1 || got > want+1 {
		t.Fatalf("recalibrations = %d, want ~%d (l1 misses %d / period %d)",
			got, want, res.L1Misses, cfg.RecalPeriod)
	}
	if res.Pred.RecalCycles == 0 {
		t.Fatal("recalibration cycles not charged")
	}
	if res.Dynamic.RecalJ == 0 {
		t.Fatal("recalibration energy not charged")
	}
}

func TestNeverRecalibrateIsWorse(t *testing.T) {
	// Stale bits only accumulate via LLC evictions, so run long enough
	// for several recalibration periods' worth of churn.
	mut := func(c *Config) {
		c.Scheme = ReDHiP
		c.IgnorePredictionOverhead = true
		c.RefsPerCore = 80_000
	}
	recal := runSmoke(t, "lbm", mut)
	never := runSmoke(t, "lbm", func(c *Config) {
		mut(c)
		c.RecalPeriod = 0
	})
	if never.Pred.Recalibrations != 0 {
		t.Fatal("recalibrated despite period 0")
	}
	if recal.Pred.Recalibrations == 0 {
		t.Fatal("periodic run never recalibrated; test is vacuous")
	}
	if never.Pred.FalsePositive <= recal.Pred.FalsePositive {
		t.Fatalf("never-recalibrate false positives (%d) not above periodic (%d)",
			never.Pred.FalsePositive, recal.Pred.FalsePositive)
	}
	if never.DynamicNJ() <= recal.DynamicNJ() {
		t.Fatal("never-recalibrate dynamic energy not above periodic")
	}
}

func TestPerMissRecalibrationIsBest(t *testing.T) {
	// Figure 12's left edge: recalibrating every miss (the mirror
	// model) is at least as accurate as any periodic schedule.
	every := runSmoke(t, "mcf", func(c *Config) {
		c.Scheme = ReDHiP
		c.RecalPeriod = 1
		c.IgnorePredictionOverhead = true
	})
	periodic := runSmoke(t, "mcf", func(c *Config) {
		c.Scheme = ReDHiP
		c.IgnorePredictionOverhead = true
	})
	if every.Pred.FalseNegative != 0 {
		t.Fatal("mirror table produced false negatives")
	}
	if every.Pred.Accuracy() < periodic.Pred.Accuracy() {
		t.Fatalf("per-miss recal accuracy %.3f below periodic %.3f",
			every.Pred.Accuracy(), periodic.Pred.Accuracy())
	}
}

func TestIgnorePredictionOverhead(t *testing.T) {
	with := runSmoke(t, "mcf", func(c *Config) { c.Scheme = ReDHiP })
	without := runSmoke(t, "mcf", func(c *Config) {
		c.Scheme = ReDHiP
		c.IgnorePredictionOverhead = true
	})
	if without.Dynamic.PTNJ != 0 || without.Dynamic.RecalJ != 0 {
		t.Fatal("overhead charged despite IgnorePredictionOverhead")
	}
	if with.Dynamic.PTNJ == 0 || with.Dynamic.RecalJ == 0 {
		t.Fatal("overhead not charged in normal mode")
	}
	if without.Cycles >= with.Cycles {
		t.Fatal("removing prediction latency did not speed up the run")
	}
}

func TestChargeFills(t *testing.T) {
	off := runSmoke(t, "mcf", func(c *Config) { c.Scheme = Base })
	on := runSmoke(t, "mcf", func(c *Config) { c.Scheme = Base; c.ChargeFills = true })
	var offFill, onFill float64
	for l := energy.L1; l < energy.NumLevels; l++ {
		offFill += off.Dynamic.FillNJ[l]
		onFill += on.Dynamic.FillNJ[l]
	}
	if offFill != 0 {
		t.Fatal("fill energy charged by default")
	}
	if onFill == 0 {
		t.Fatal("fill energy not charged with ChargeFills")
	}
	if on.Cycles != off.Cycles {
		t.Fatal("fill accounting changed timing")
	}
}

func TestHybridMatchesInclusiveForReDHiP(t *testing.T) {
	// Section III-C/Figure 13: with an inclusive LLC the hybrid policy
	// requires no ReDHiP changes and shows negligible result change.
	inc := runSmoke(t, "milc", func(c *Config) { c.Scheme = ReDHiP })
	hyb := runSmoke(t, "milc", func(c *Config) { c.Scheme = ReDHiP; c.Inclusion = Hybrid })
	incSave := 1 - inc.DynamicNJ()/runSmoke(t, "milc", func(c *Config) { c.Scheme = Base }).DynamicNJ()
	hybBase := runSmoke(t, "milc", func(c *Config) { c.Scheme = Base; c.Inclusion = Hybrid })
	hybSave := 1 - hyb.DynamicNJ()/hybBase.DynamicNJ()
	if diff := incSave - hybSave; diff > 0.15 || diff < -0.15 {
		t.Fatalf("hybrid savings %.3f far from inclusive %.3f", hybSave, incSave)
	}
}

func TestExclusiveStillSaves(t *testing.T) {
	// Figure 13: exclusive saves less than inclusive but still a large
	// fraction over its own base.
	base := runSmoke(t, "mcf", func(c *Config) { c.Scheme = Base; c.Inclusion = Exclusive })
	red := runSmoke(t, "mcf", func(c *Config) { c.Scheme = ReDHiP; c.Inclusion = Exclusive })
	if red.Pred.FalseNegative != 0 {
		t.Fatal("exclusive per-level stack produced false negatives")
	}
	save := 1 - red.DynamicNJ()/base.DynamicNJ()
	if save <= 0.10 {
		t.Fatalf("exclusive ReDHiP saves only %.1f%%", 100*save)
	}
}

func TestExclusiveLevelsDisjoint(t *testing.T) {
	// White-box: after an exclusive run, no block may live in two
	// levels of the same core's private chain, nor in a private level
	// and L4 simultaneously.
	cfg := Smoke()
	cfg.Scheme = Base
	cfg.Inclusion = Exclusive
	e := runWhiteBox(t, cfg, "astar", 3)
	for c := 0; c < cfg.Cores; c++ {
		e.l1[c].ForEachBlock(func(b memaddr.Addr) {
			if e.l2[c].Contains(b) || e.l3[c].Contains(b) || e.l4.Contains(b) {
				t.Fatalf("core %d: block %v in L1 and a lower level (exclusivity violated)", c, b)
			}
		})
		e.l2[c].ForEachBlock(func(b memaddr.Addr) {
			if e.l3[c].Contains(b) || e.l4.Contains(b) {
				t.Fatalf("core %d: block %v in L2 and a lower level", c, b)
			}
		})
		e.l3[c].ForEachBlock(func(b memaddr.Addr) {
			if e.l4.Contains(b) {
				t.Fatalf("core %d: block %v in L3 and L4", c, b)
			}
		})
	}
}

func TestInclusionInvariantHolds(t *testing.T) {
	// White-box: after an inclusive run, every block in a private level
	// must be present in the shared L4.
	cfg := Smoke()
	cfg.Scheme = ReDHiP
	e := runWhiteBox(t, cfg, "soplex", 5)
	for c := 0; c < cfg.Cores; c++ {
		for _, lvl := range []int{1, 2, 3} {
			var ch interface {
				ForEachBlock(func(memaddr.Addr))
			}
			switch lvl {
			case 1:
				ch = e.l1[c]
			case 2:
				ch = e.l2[c]
			case 3:
				ch = e.l3[c]
			}
			ch.ForEachBlock(func(b memaddr.Addr) {
				if !e.l4.Contains(b) {
					t.Fatalf("core %d L%d: block %v not in inclusive L4", c, lvl, b)
				}
			})
		}
	}
}

func TestPrefetchImprovesStreaming(t *testing.T) {
	// Figure 14: the stride prefetcher accelerates prefetchable codes.
	base := runSmoke(t, "lbm", func(c *Config) { c.Scheme = Base })
	sp := runSmoke(t, "lbm", func(c *Config) { c.Scheme = Base; c.EnablePrefetch = true })
	if sp.Prefetch.Issued == 0 {
		t.Fatal("prefetcher idle on a streaming workload")
	}
	if sp.Prefetch.Useful == 0 {
		t.Fatal("no useful prefetches on a streaming workload")
	}
	if sp.Cycles >= base.Cycles {
		t.Fatal("prefetch did not speed up streaming workload")
	}
	// Figure 15: prefetching costs dynamic energy.
	if sp.DynamicNJ() <= base.DynamicNJ() {
		t.Fatal("prefetch did not cost energy")
	}
}

func TestPrefetchPlusReDHiP(t *testing.T) {
	// Figure 14/15: the combination is faster than either alone on a
	// streaming workload, with energy between SP-only and ReDHiP-only.
	base := runSmoke(t, "lbm", func(c *Config) { c.Scheme = Base })
	sp := runSmoke(t, "lbm", func(c *Config) { c.Scheme = Base; c.EnablePrefetch = true })
	rd := runSmoke(t, "lbm", func(c *Config) { c.Scheme = ReDHiP })
	both := runSmoke(t, "lbm", func(c *Config) { c.Scheme = ReDHiP; c.EnablePrefetch = true })
	if both.Cycles >= sp.Cycles || both.Cycles >= rd.Cycles {
		t.Fatalf("combination (%d) not faster than SP (%d) and ReDHiP (%d)",
			both.Cycles, sp.Cycles, rd.Cycles)
	}
	if both.DynamicNJ() >= sp.DynamicNJ() {
		t.Fatal("ReDHiP did not offset prefetch energy")
	}
	_ = base
}

func TestMixWorkloadRuns(t *testing.T) {
	res := runSmoke(t, "mix", func(c *Config) { c.Scheme = ReDHiP })
	if res.Refs == 0 || res.Pred.FalseNegative != 0 {
		t.Fatalf("mix run bad: %+v", res.Pred)
	}
}

func TestCoreClocksBalanced(t *testing.T) {
	// The min-time interleaving must keep identical multiprogrammed
	// copies roughly in lockstep.
	res := runSmoke(t, "GemsFDTD", nil)
	var min, max uint64 = ^uint64(0), 0
	for _, c := range res.CoreCycles {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 || float64(max-min)/float64(max) > 0.05 {
		t.Fatalf("core clocks unbalanced: min %d max %d", min, max)
	}
	if res.Cycles != max {
		t.Fatalf("Cycles %d != max core %d", res.Cycles, max)
	}
}

func TestLeakageTracksCycles(t *testing.T) {
	res := runSmoke(t, "soplex", nil)
	cfg := Smoke()
	want := energy.LeakageNJ(&cfg.Energy, cfg.Cores, res.Cycles)
	if res.LeakageNJ != want {
		t.Fatalf("leakage %v, want %v", res.LeakageNJ, want)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	base := runSmoke(t, "mcf", func(c *Config) { c.Scheme = Base })
	red := runSmoke(t, "mcf", func(c *Config) { c.Scheme = ReDHiP })
	if base.Speedup(base) != 0 {
		t.Error("self speedup not 0")
	}
	if base.DynamicEnergyRatio(base) != 1 {
		t.Error("self energy ratio not 1")
	}
	if red.PerformanceEnergyMetric(base) <= 1 {
		t.Error("redhip metric not above 1 on memory-bound workload")
	}
	if red.String() == "" {
		t.Error("empty String()")
	}
	if base.TotalNJ() <= base.DynamicNJ() {
		t.Error("total energy must include leakage")
	}
}

func TestCBFInclusiveAccuracyPositive(t *testing.T) {
	res := runSmoke(t, "bwaves", func(c *Config) { c.Scheme = CBF })
	if res.Pred.FalseNegative != 0 {
		t.Fatal("CBF produced false negatives")
	}
	if res.Pred.TrueNegative == 0 {
		t.Fatal("CBF never skipped a walk")
	}
}

func TestPaperScaleSmallRun(t *testing.T) {
	// The exact Table I geometry must run end to end (shortened).
	if testing.Short() {
		t.Skip("paper geometry run skipped in -short mode")
	}
	cfg := Paper()
	cfg.RefsPerCore = 20_000
	srcs, err := workload.Sources("astar", cfg.Cores, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pred.FalseNegative != 0 {
		t.Fatal("false negative at paper scale")
	}
}
