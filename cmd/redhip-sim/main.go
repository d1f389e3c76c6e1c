// Command redhip-sim runs a single simulation configuration and prints
// the detailed result: per-level hit rates, cycle counts, the full
// energy breakdown, predictor accuracy and prefetcher statistics.
// With -compare it also runs the Base configuration and reports the
// paper's headline metrics (speedup, dynamic/total energy savings).
//
// Usage:
//
//	redhip-sim -workload mcf -scheme redhip
//	redhip-sim -workload lbm -scheme redhip -prefetch -compare
//	redhip-sim -workload mix -scheme oracle -inclusion hybrid -refs 1000000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"redhip/internal/energy"
	"redhip/internal/sim"
	"redhip/internal/trace"
	"redhip/internal/version"
	"redhip/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "mcf", "workload name (see redhip-trace -list)")
		scheme    = flag.String("scheme", "redhip", "scheme: base, phased, cbf, redhip or oracle")
		inclusion = flag.String("inclusion", "inclusive", "inclusion policy: inclusive, hybrid or exclusive")
		geometry  = flag.String("geometry", "scaled", "cache geometry: paper, scaled or smoke")
		refs      = flag.Uint64("refs", 0, "references per core (default: geometry preset)")
		seed      = flag.Uint64("seed", 1, "workload generator seed")
		ptBytes   = flag.Uint64("pt", 0, "prediction table bytes (default: geometry preset)")
		recal     = flag.Uint64("recal", 0, "recalibration period in L1 misses (default: geometry preset; use 'never' via -no-recal)")
		noRecal   = flag.Bool("no-recal", false, "disable recalibration")
		prefetch  = flag.Bool("prefetch", false, "enable the stride prefetcher")
		compare   = flag.Bool("compare", false, "also run Base and print relative metrics")
		jsonOut   = flag.Bool("json", false, "emit the full result as JSON instead of text")
		traceFile = flag.String("trace", "", "replay a recorded trace file (redhip-trace -gen) on every core instead of a named workload")
		warmup    = flag.Uint64("warmup", 0, "references per core to run before the measurement window (paper: warm-up phases skipped)")
		showVer   = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(version.String())
		return
	}

	cfg, err := sim.Preset(*geometry)
	if err != nil {
		fatal(err)
	}
	if *geometry == "paper" {
		// The paper's 500M refs/core take hours; default to a
		// tractable slice and let -refs raise it.
		cfg.RefsPerCore = 2_000_000
	}
	if cfg.Scheme, err = sim.ParseScheme(*scheme); err != nil {
		fatal(err)
	}
	if cfg.Inclusion, err = sim.ParseInclusion(*inclusion); err != nil {
		fatal(err)
	}
	if *refs > 0 {
		cfg.RefsPerCore = *refs
	}
	if *ptBytes > 0 {
		cfg.PTBytes = *ptBytes
	}
	if *recal > 0 {
		cfg.RecalPeriod = *recal
	}
	if *noRecal {
		cfg.RecalPeriod = 0
	}
	cfg.EnablePrefetch = *prefetch
	cfg.WarmupRefsPerCore = *warmup

	var res *sim.Result
	if *traceFile != "" {
		res, err = runTrace(cfg, *traceFile)
	} else {
		res, err = run(cfg, *wl, *seed)
	}
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		if !*compare {
			return
		}
	} else {
		printResult(res, &cfg)
	}

	if *compare {
		base := cfg.WithScheme(sim.Base).WithPrefetch(false)
		var baseRes *sim.Result
		if *traceFile != "" {
			baseRes, err = runTrace(base, *traceFile)
		} else {
			baseRes, err = run(base, *wl, *seed)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Printf("vs base:\n")
		fmt.Printf("  speedup:                %+.1f%%\n", 100*res.Speedup(baseRes))
		fmt.Printf("  dynamic energy:         %.1f%% of base (%.1f%% saving)\n",
			100*res.DynamicEnergyRatio(baseRes), 100*(1-res.DynamicEnergyRatio(baseRes)))
		fmt.Printf("  total energy saving:    %+.1f%%\n", 100*res.TotalEnergySaving(baseRes))
		fmt.Printf("  performance-energy:     %.3f\n", res.PerformanceEnergyMetric(baseRes))
	}
}

// runTrace replays a recorded trace on every core (each core gets an
// independent cursor over the same records, like the paper's
// multiprogrammed duplication) and bounds the run by the trace length.
func runTrace(cfg sim.Config, path string) (*sim.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; close errors carry no data
	tr, err := trace.Read(f)
	if err != nil {
		return nil, err
	}
	if n := uint64(len(tr.Records)); n > 0 && n < cfg.RefsPerCore {
		cfg.RefsPerCore = n
	}
	srcs := make([]workload.Source, cfg.Cores)
	for i := range srcs {
		srcs[i] = workload.FromTrace(tr)
	}
	return sim.Run(cfg, srcs)
}

func run(cfg sim.Config, wl string, seed uint64) (*sim.Result, error) {
	srcs, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, seed)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg, srcs)
}

func printResult(r *sim.Result, cfg *sim.Config) {
	fmt.Printf("workload %s, scheme %s, %s hierarchy, %d cores\n",
		r.Workload, r.Scheme, r.Inclusion, cfg.Cores)
	fmt.Printf("refs: %d   cycles: %d   memory fetches: %d\n", r.Refs, r.Cycles, r.MemoryFetches)
	fmt.Println("level  lookups      hit rate  dynamic nJ")
	for l := energy.L1; l < energy.NumLevels; l++ {
		s := r.Levels[l]
		fmt.Printf("%-5s  %-11d  %6.2f%%  %.4g\n", l, s.Lookups, 100*s.HitRate(), r.Dynamic.LevelNJ(l))
	}
	fmt.Printf("predictor energy: %.4g nJ   recalibration energy: %.4g nJ\n", r.Dynamic.PTNJ, r.Dynamic.RecalJ)
	fmt.Printf("dynamic total: %.4g nJ   leakage: %.4g nJ   total: %.4g nJ\n",
		r.DynamicNJ(), r.LeakageNJ, r.TotalNJ())
	if r.Pred.Lookups > 0 {
		fmt.Printf("predictor: %d lookups, %.1f%% accurate (TP %d, FP %d, TN %d, FN %d), %d recalibrations (%d stall cycles)\n",
			r.Pred.Lookups, 100*r.Pred.Accuracy(), r.Pred.TruePositive, r.Pred.FalsePositive,
			r.Pred.TrueNegative, r.Pred.FalseNegative, r.Pred.Recalibrations, r.Pred.RecalCycles)
	}
	if r.Prefetch.Issued > 0 {
		fmt.Printf("prefetch: %d issued, %d useful (%.1f%%)\n", r.Prefetch.Issued, r.Prefetch.Useful,
			100*float64(r.Prefetch.Useful)/float64(r.Prefetch.Issued))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "redhip-sim:", err)
	os.Exit(1)
}
