// Command redhip-bench regenerates the paper's evaluation: every table
// and figure of Section V, printed as aligned text, CSV, markdown or a
// bar chart of each figure's last column.
//
// Usage:
//
//	redhip-bench                          # all figures, scaled geometry
//	redhip-bench -experiment fig6,fig7    # a subset
//	redhip-bench -experiment everything   # every figure, then every ablation
//	redhip-bench -geometry smoke -verify  # check the paper's claims
//	redhip-bench -geometry paper -refs 1000000
//	redhip-bench -workloads mcf,lbm -format csv
//
// The -experiment names are the entries of experiment.Catalog, listed
// in order by -help.
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
		expList   = flag.String("experiment", "all", "comma-separated experiments: "+experimentNames())
		geometry  = flag.String("geometry", "scaled", "cache geometry: paper, scaled or smoke")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: the paper's 11)")
		refs      = flag.Uint64("refs", 0, "references per core (default: geometry preset)")
		seed      = flag.Uint64("seed", 1, "workload generator seed")
		format    = flag.String("format", "text", "output format: text, csv, markdown or chart")
		par       = flag.Int("parallel", 0, "concurrent simulations (default: NumCPU)")
		verbose   = flag.Bool("v", false, "print per-run progress to stderr")
		verify    = flag.Bool("verify", false, "check the paper's qualitative claims against the regenerated data and exit nonzero on failure")

		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
		traceBudget = flag.Uint64("trace-budget", 0, "trace store byte budget (default: tracestore.DefaultBudgetBytes); tiny values regenerate every stream")

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

	cfg, err := sim.Preset(*geometry)
	if err != nil {
		fatal(err)
	}
	if *geometry == "paper" {
		// The paper simulates 500M refs/core; that is hours of wall
		// time, so default to a tractable slice and let -refs raise it.
		cfg.RefsPerCore = 2_000_000
	}
	if *refs > 0 {
		cfg.RefsPerCore = *refs
	}
	opts := experiment.Options{
		Base:        cfg,
		Seed:        *seed,
		Parallelism: *par,
		TraceCache:  tracestore.New(*traceBudget),
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if *verbose {
		opts.OnRun = func(u experiment.RunUpdate) {
			if u.Err != nil {
				fmt.Fprintf(os.Stderr, "%s/%s: ERROR %v\n", u.Workload, u.Scheme, u.Err)
			} else {
				fmt.Fprintf(os.Stderr, "%s/%s/%s done (%d refs)\n", u.Workload, u.Scheme, u.Inclusion, u.Result.Refs)
			}
		}
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
	var figs []*experiment.Figure
	for _, name := range strings.Split(list, ",") {
		e, ok := experiment.Lookup(strings.TrimSpace(strings.ToLower(name)))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		f, err := e.Build(r)
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// experimentNames lists every -experiment value: the three groups, then
// each figure and ablation by name.
func experimentNames() string {
	names := []string{"all", "everything", "ablations"}
	for _, e := range experiment.Catalog {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "redhip-bench:", err)
	os.Exit(1)
}
