// Command redhip-lint runs the project's custom static-analysis suite:
//
//	go run ./cmd/redhip-lint ./...
//
// Eight analyzers machine-enforce the simulator's contracts —
// determinism (no wall clock, no global rand, no order-dependent map
// folds in simulation packages), hotpath (no allocations, interface
// dispatch or defer in //redhip:hotpath functions), exhaustive (switches
// over scheme/inclusion/policy enums cover every variant), invariant
// (exported mutators on cache.Cache/core.Table run redhipassert checks,
// panic messages are package-prefixed), statecov (every field of a
// snapshot-reachable struct is serialised or //redhip:transient),
// guarded (//redhip:guardedby mutex discipline, atomic-field
// discipline, goroutine capture audit), unsafeaudit (unsafe, reflect
// and memory-mapping syscalls confined to analysis.UnsafePackages,
// each site justified by //redhip:unsafe-ok) and annotations
// (malformed //redhip: directives are findings, not silently ignored
// typos).
//
// The analyzer list lives in internal/analysis/registry, sorted by
// name, so -list output and the run order are deterministic.
//
// Diagnostics print as path:line:col: [analyzer] message and any
// finding makes the process exit 1, so CI can run it as a blocking job.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"redhip/internal/analysis"
	"redhip/internal/analysis/load"
	"redhip/internal/analysis/registry"
	"redhip/internal/version"
)

var analyzers = registry.All()

func main() {
	listFlag := flag.Bool("list", false, "list the registered analyzers and exit")
	typeErrFlag := flag.Bool("type-errors", false, "also report type-checking errors (default: fatal only when a package fails to load)")
	verFlag := flag.Bool("version", false, "print build version and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: redhip-lint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Packages default to ./... resolved against the module root.\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *verFlag {
		fmt.Println(version.String())
		return
	}

	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := load.NewLoader(load.Config{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "redhip-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Patterns(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "redhip-lint: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "redhip-lint: no packages matched")
		os.Exit(2)
	}

	var diags []analysis.Diagnostic
	hadTypeErrors := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			hadTypeErrors = true
			if *typeErrFlag {
				fmt.Fprintf(os.Stderr, "redhip-lint: %s: type error: %v\n", pkg.Path, terr)
			}
		}
		for _, a := range analyzers {
			pass := analysis.NewPass(a, loader.Fset(), pkg.Files, pkg.Types, pkg.Info,
				func(d analysis.Diagnostic) { diags = append(diags, d) })
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "redhip-lint: %s on %s: %v\n", a.Name, pkg.Path, err)
				os.Exit(2)
			}
		}
	}

	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := loader.Fset().Position(diags[i].Pos), loader.Fset().Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	wd, _ := os.Getwd()
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		name := pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && len(rel) < len(name) {
				name = rel
			}
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "redhip-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	if hadTypeErrors && *typeErrFlag {
		os.Exit(1)
	}
}
