package redhip_test

import (
	"bytes"
	"fmt"

	"redhip"
)

// must unwraps a (value, error) pair; an example has no caller to hand
// an error to, so any error fails it loudly.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Run one memory-bound workload (mcf) through the base hierarchy and
// through ReDHiP, and print the paper's headline metrics — speedup,
// dynamic energy saving, total energy saving — plus the predictor's
// accuracy.
func ExampleRunWorkload() {
	// The scaled configuration is Table I divided by 16 (geometry
	// ratios, the 0.78% table overhead and p-k = 6 all preserved), so
	// it warms up within laptop-scale trace lengths.
	cfg := redhip.ScaledConfig()
	cfg.RefsPerCore = 300_000

	base := must(redhip.RunWorkload(cfg.WithScheme(redhip.Base), "mcf", 1))
	res := must(redhip.RunWorkload(cfg.WithScheme(redhip.ReDHiP), "mcf", 1))

	fmt.Println("ReDHiP on 8x mcf (scaled Table I geometry)")
	fmt.Printf("  speedup:               %+.1f%%   (paper average: +8%%)\n", 100*res.Speedup(base))
	fmt.Printf("  dynamic energy saving: %.1f%%   (paper average: 61%%)\n",
		100*(1-res.DynamicEnergyRatio(base)))
	fmt.Printf("  total energy saving:   %.1f%%   (paper average: 22%%)\n",
		100*res.TotalEnergySaving(base))
	fmt.Printf("  predictor accuracy:    %.1f%% over %d L1 misses, %d recalibrations\n",
		100*res.Pred.Accuracy(), res.Pred.Lookups, res.Pred.Recalibrations)
	fmt.Printf("  false negatives:       %d (must be 0: predictions are conservative)\n",
		res.Pred.FalseNegative)
	// Output:
	// ReDHiP on 8x mcf (scaled Table I geometry)
	//   speedup:               +5.1%   (paper average: +8%)
	//   dynamic energy saving: 65.4%   (paper average: 61%)
	//   total energy saving:   18.9%   (paper average: 22%)
	//   predictor accuracy:    85.9% over 353185 L1 misses, 5 recalibrations
	//   false negatives:       0 (must be 0: predictions are conservative)
}

// Evaluate ReDHiP on your own access pattern: define a WorkloadProfile
// as a weighted mixture of components (hot set, streams, strided
// sweeps, pointer chases, Zipf), build per-core sources from it, and
// run any scheme. Traces captured from a source round-trip through the
// compact binary format, so generation can be done once and replayed.
func Example_customWorkload() {
	// A synthetic "key-value store" profile: a hot working set of
	// index structures, Zipf-skewed value lookups over a large heap,
	// and a log writer streaming appends.
	profile := &redhip.WorkloadProfile{
		Name:      "kvstore",
		CPIVal:    2.5,
		WriteFrac: 0.3,
		MeanGap:   2,
		Components: []redhip.ComponentSpec{
			{Kind: redhip.KindHot, Weight: 0.78, SizeLog2: 14},             // 16 KB of hot index nodes
			{Kind: redhip.KindZipf, Weight: 0.08, SizeLog2: 24, Skew: 1.5}, // skewed value reads
			{Kind: redhip.KindStream, Weight: 0.08, SizeLog2: 28},          // log appends
			{Kind: redhip.KindChase, Weight: 0.06, SizeLog2: 29},           // cold overflow chains
		},
	}

	cfg := redhip.ScaledConfig()
	cfg.RefsPerCore = 150_000

	// One independent source per core (different seeds model different
	// server threads over the same store). Sources are consumed by a
	// run, so each run gets its own.
	sources := func() []redhip.WorkloadSource {
		srcs := make([]redhip.WorkloadSource, cfg.Cores)
		for i := range srcs {
			srcs[i] = must(redhip.NewWorkload(profile, cfg.WorkloadScale, uint64(100+i)))
		}
		return srcs
	}
	base := must(redhip.Run(cfg.WithScheme(redhip.Base), sources()))
	res := must(redhip.Run(cfg.WithScheme(redhip.ReDHiP), sources()))

	fmt.Println("ReDHiP on a custom key-value-store workload")
	fmt.Printf("  speedup:               %+.1f%%\n", 100*res.Speedup(base))
	fmt.Printf("  dynamic energy saving: %.1f%%\n", 100*(1-res.DynamicEnergyRatio(base)))
	fmt.Printf("  predictor accuracy:    %.1f%%\n", 100*res.Pred.Accuracy())

	tr := redhip.CaptureTrace(must(redhip.NewWorkload(profile, cfg.WorkloadScale, 100)), 50_000)
	var buf bytes.Buffer
	if err := redhip.WriteTrace(&buf, tr); err != nil {
		panic(err)
	}
	encodedBytes := buf.Len() // reading drains the buffer; measure first
	back := must(redhip.ReadTrace(&buf))
	st := redhip.ComputeTraceStats(back.Records)
	fmt.Printf("trace round trip: %d records, %.2f bytes each, footprint %.1f MiB\n",
		st.Refs, float64(encodedBytes)/float64(st.Refs), st.FootprintMiB)
	// Output:
	// ReDHiP on a custom key-value-store workload
	//   speedup:               +6.6%
	//   dynamic energy saving: 44.7%
	//   predictor accuracy:    95.2%
	// trace round trip: 50000 records, 7.14 bytes each, footprint 0.4 MiB
}

// Run the exact Table I configuration — 32K/256K/4M private levels, a
// 64 MB shared L4, the 512 KB prediction table with p = 22 and
// recalibration every 1M L1 misses — on unscaled workloads. The paper
// simulates 500M references per core; this runs a short slice, so the
// 64 MB LLC is still warming up and the absolute hit rates are below
// steady state. Use it to sanity-check the full-size hardware
// parameters; use ScaledConfig for calibrated steady-state results.
func ExamplePaperConfig() {
	cfg := redhip.PaperConfig()
	cfg.RefsPerCore = 250_000 // a short slice of the paper's 500M

	base := must(redhip.RunWorkload(cfg.WithScheme(redhip.Base), "soplex", 1))
	res := must(redhip.RunWorkload(cfg.WithScheme(redhip.ReDHiP), "soplex", 1))

	fmt.Printf("Table I geometry: L1 %dK, L2 %dK, L3 %dM, L4 %dM, PT %dK (p-k preserved)\n",
		32, 256, 4, 64, 512)
	fmt.Printf("simulated %d references on %d cores\n", base.Refs+res.Refs, cfg.Cores)
	fmt.Printf("speedup %+.1f%%, dynamic saving %.1f%%, accuracy %.1f%%, false negatives %d\n",
		100*res.Speedup(base), 100*(1-res.DynamicEnergyRatio(base)),
		100*res.Pred.Accuracy(), res.Pred.FalseNegative)
	// Output:
	// Table I geometry: L1 32K, L2 256K, L3 4M, L4 64M, PT 512K (p-k preserved)
	// simulated 4000000 references on 8 cores
	// speedup +11.8%, dynamic saving 74.1%, accuracy 85.4%, false negatives 0
}

// The Figure 14/15 interaction study on a streaming workload: the
// stride prefetcher buys latency at an energy cost, ReDHiP buys energy
// with a modest latency gain, and combined the speedups add while
// ReDHiP offsets the prefetch energy (paper Section V-C).
func Example_prefetch() {
	cfg := redhip.ScaledConfig()
	cfg.RefsPerCore = 100_000
	const wl = "lbm" // streaming: highly prefetchable

	run := func(scheme redhip.Scheme, pf bool) *redhip.Result {
		return must(redhip.RunWorkload(cfg.WithScheme(scheme).WithPrefetch(pf), wl, 1))
	}
	base := run(redhip.Base, false)
	variants := []struct {
		name string
		res  *redhip.Result
	}{
		{"SP only", run(redhip.Base, true)},
		{"ReDHiP only", run(redhip.ReDHiP, false)},
		{"SP+ReDHiP", run(redhip.ReDHiP, true)},
	}

	fmt.Printf("Stride prefetch x ReDHiP on 8x %s (vs base with neither)\n", wl)
	fmt.Println("mechanism     speedup   dynamic energy   prefetches (useful)")
	for _, v := range variants {
		pf := "-"
		if v.res.Prefetch.Issued > 0 {
			pf = fmt.Sprintf("%d (%.0f%%)", v.res.Prefetch.Issued,
				100*float64(v.res.Prefetch.Useful)/float64(v.res.Prefetch.Issued))
		}
		fmt.Printf("%-12s  %+6.1f%%   %6.1f%% of base   %s\n", v.name,
			100*v.res.Speedup(base), 100*v.res.DynamicEnergyRatio(base), pf)
	}
	// Output:
	// Stride prefetch x ReDHiP on 8x lbm (vs base with neither)
	// mechanism     speedup   dynamic energy   prefetches (useful)
	// SP only         +4.5%    100.4% of base   29488 (51%)
	// ReDHiP only    +12.4%     32.5% of base   -
	// SP+ReDHiP      +13.8%     32.9% of base   29488 (51%)
}

// The Figure 11 methodology on a single workload: sweep the
// prediction-table size and show how accuracy (and therefore dynamic
// energy) responds — a 512K table is the knee, and a bigger one buys
// little per bit of storage. The Figure 12 recalibration-period sweep
// needs traces long enough for the LLC to evict, which is longer than
// an example runs; `redhip-bench -experiment fig12` measures it.
func Example_tableSweep() {
	base := redhip.ScaledConfig()
	base.RefsPerCore = 80_000
	baseline := must(redhip.RunWorkload(base.WithScheme(redhip.Base), "soplex", 1))

	fmt.Println("Prediction-table size sweep (soplex, overhead ignored)")
	fmt.Println("paper-scale size   accuracy   dynamic energy vs base")
	for _, paperSize := range []uint64{64 << 10, 256 << 10, 512 << 10, 2 << 20} {
		cfg := base.WithScheme(redhip.ReDHiP)
		cfg.PTBytes = paperSize / cfg.WorkloadScale
		cfg.IgnorePredictionOverhead = true
		res := must(redhip.RunWorkload(cfg, "soplex", 1))
		fmt.Printf("%14dK   %7.1f%%   %6.1f%%\n", paperSize>>10,
			100*res.Pred.Accuracy(), 100*res.DynamicNJ()/baseline.DynamicNJ())
	}
	// Output:
	// Prediction-table size sweep (soplex, overhead ignored)
	// paper-scale size   accuracy   dynamic energy vs base
	//             64K      74.3%     54.6%
	//            256K      91.3%     25.6%
	//            512K      92.6%     23.5%
	//           2048K      93.1%     22.6%
}
