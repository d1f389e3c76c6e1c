// Command redhip-bench regenerates the paper's evaluation: every table
// and figure of Section V, printed as aligned text, CSV or markdown.
//
// Usage:
//
//	redhip-bench                         # all figures, scaled geometry
//	redhip-bench -experiment fig6,fig7   # a subset
//	redhip-bench -geometry paper -refs 1000000
//	redhip-bench -workloads mcf,lbm -format csv
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on -pprof
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"redhip/internal/experiment"
	"redhip/internal/sim"
	"redhip/internal/tracestore"
	"redhip/internal/version"
)

func main() {
	var (
		expList   = flag.String("experiment", "all", "comma-separated experiments: all, everything, ablations, table1, fig1, fig6..fig15, ablation-{hash,cbf,banks,replacement,fills,adaptive}")
		geometry  = flag.String("geometry", "scaled", "cache geometry: paper, scaled or smoke")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: the paper's 11)")
		refs      = flag.Uint64("refs", 0, "references per core (default: geometry preset)")
		seed      = flag.Uint64("seed", 1, "workload generator seed")
		format    = flag.String("format", "text", "output format: text, csv, markdown or chart")
		par       = flag.Int("parallel", 0, "concurrent simulations (default: NumCPU)")
		verbose   = flag.Bool("v", false, "print per-run progress to stderr")
		verify    = flag.Bool("verify", false, "check the paper's qualitative claims against the regenerated data and exit nonzero on failure")

		cpuProfile      = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile      = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr       = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
		traceDir        = flag.String("trace-dir", "", "enable the trace store's mmap-backed disk tier: streams evicted from RAM spill to an unlinked temp file in this directory and replay zero-copy")
		traceBudget     = flag.Uint64("trace-budget", 0, "trace store RAM budget in bytes (default: tracestore.DefaultBudgetBytes); tiny values force every stream through the disk tier")
		traceDiskBudget = flag.Uint64("trace-disk-budget", 0, "disk tier budget in bytes (default: tracestore.DefaultDiskBudgetBytes); needs -trace-dir")

		showVer = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(version.String())
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		// Registered before StopCPUProfile so LIFO ordering closes the
		// file after the profile stops writing to it.
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle live objects so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				_ = f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err) // a failed close can truncate the profile
			}
		}()
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "redhip-bench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof server on http://%s/debug/pprof/\n", *pprofAddr)
	}

	cfg, err := configFor(*geometry)
	if err != nil {
		fatal(err)
	}
	if *refs > 0 {
		cfg.RefsPerCore = *refs
	}
	opts := experiment.Options{Base: cfg, Seed: *seed, Parallelism: *par}
	if *traceDir != "" || *traceBudget != 0 {
		store, err := tracestore.NewWithConfig(tracestore.Config{
			BudgetBytes:     *traceBudget,
			DiskDir:         *traceDir,
			DiskBudgetBytes: *traceDiskBudget,
		})
		if err != nil {
			fatal(err)
		}
		defer func() { _ = store.Close() }()
		opts.TraceCache = store
	} else if *traceDiskBudget != 0 {
		fatal(fmt.Errorf("-trace-disk-budget needs -trace-dir"))
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if *verbose {
		opts.Progress = func(m string) { fmt.Fprintln(os.Stderr, m) }
	}
	runner, err := experiment.NewRunner(opts)
	if err != nil {
		fatal(err)
	}

	if *verify {
		checks, err := runner.Verify()
		if err != nil {
			fatal(err)
		}
		failed := 0
		for _, c := range checks {
			verdict := "PASS"
			if !c.Pass {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-4s  %s", verdict, c.Name)
			if c.Detail != "" {
				fmt.Printf("  (%s)", c.Detail)
			}
			fmt.Println()
		}
		if failed > 0 {
			fatal(fmt.Errorf("%d/%d claims failed", failed, len(checks)))
		}
		fmt.Printf("all %d claims hold\n", len(checks))
		return
	}

	figs, err := selectFigures(runner, *expList)
	if err != nil {
		fatal(err)
	}
	for i, f := range figs {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s ===\n", f.ID)
		if f.Caption != "" {
			fmt.Printf("%s\n\n", f.Caption)
		}
		switch *format {
		case "text":
			fmt.Print(f.Table.String())
		case "csv":
			fmt.Print(f.Table.CSV())
		case "markdown":
			fmt.Print(f.Table.Markdown())
		case "chart":
			// Chart the last column (the per-figure average).
			fmt.Print(f.Table.Chart(len(f.Table.Columns) - 1).String())
		default:
			fatal(fmt.Errorf("unknown format %q", *format))
		}
	}
}

func configFor(geometry string) (sim.Config, error) {
	switch geometry {
	case "paper":
		c := sim.Paper()
		// The paper simulates 500M refs/core; that is hours of wall
		// time, so default to a tractable slice and let -refs raise it.
		c.RefsPerCore = 2_000_000
		return c, nil
	case "scaled":
		return sim.Scaled(), nil
	case "smoke":
		return sim.Smoke(), nil
	default:
		return sim.Config{}, fmt.Errorf("unknown geometry %q (want paper, scaled or smoke)", geometry)
	}
}

func selectFigures(r *experiment.Runner, list string) ([]*experiment.Figure, error) {
	switch list {
	case "all":
		return r.All()
	case "ablations":
		return r.Ablations()
	case "everything":
		figs, err := r.All()
		if err != nil {
			return nil, err
		}
		abl, err := r.Ablations()
		if err != nil {
			return nil, err
		}
		return append(figs, abl...), nil
	}
	builders := map[string]func() (*experiment.Figure, error){
		"table1": func() (*experiment.Figure, error) {
			return &experiment.Figure{ID: "Table I", Caption: "Architecture parameters.", Table: r.TableI()}, nil
		},
		"fig1":                 func() (*experiment.Figure, error) { return r.Fig1CacheSizeTrend(), nil },
		"fig1-energy":          r.Fig1EnergyBreakdown,
		"fig6":                 r.Fig6Speedup,
		"fig7":                 r.Fig7DynamicEnergy,
		"fig8":                 r.Fig8Metric,
		"fig9":                 r.Fig9HitRatesBase,
		"fig10":                r.Fig10HitRatesReDHiP,
		"fig11":                r.Fig11TableSize,
		"fig12":                r.Fig12RecalPeriod,
		"fig13":                r.Fig13Inclusion,
		"fig14":                r.Fig14PrefetchSpeedup,
		"fig15":                r.Fig15PrefetchEnergy,
		"ablation-hash":        r.AblationHash,
		"ablation-cbf":         r.AblationCBFCounters,
		"ablation-banks":       r.AblationBanks,
		"ablation-replacement": r.AblationReplacement,
		"ablation-fills":       r.AblationFills,
		"ablation-adaptive":    r.AblationAdaptive,
		"ablation-memlat":      r.AblationMemoryLatency,
	}
	var figs []*experiment.Figure
	for _, name := range strings.Split(list, ",") {
		b, ok := builders[strings.TrimSpace(strings.ToLower(name))]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		f, err := b()
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "redhip-bench:", err)
	os.Exit(1)
}
