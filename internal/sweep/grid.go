// Package sweep turns a parameter grid — the cross product of
// workloads, geometries, core counts, simulation lengths and seeds,
// evaluated under a shared scheme list — into the deterministic child
// jobs a sweep orchestrator submits, and aggregates the children's
// simulation results back into paper-figure artifacts (Fig 9-style
// per-level hit-rate tables and Fig 7-style normalised energy tables).
//
// The package is deliberately pure: grid expansion and aggregation
// read no clocks, spawn no goroutines and iterate no maps, so the
// same grid always yields the same child order and byte-identical
// artifacts. The serving side (internal/serve) owns submission,
// concurrency and progress; redhip-lint's determinism analyzer
// patrols this package like any simulation package.
package sweep

import (
	"fmt"

	"redhip/internal/sim"
	"redhip/internal/workload"
)

// Grid is the request body of POST /v1/sweeps: the axes of a parameter
// sweep. Schemes are evaluated together within each cell (one engine
// pass replays one trace under every scheme), so they multiply runs but
// not child jobs; every other axis multiplies children.
type Grid struct {
	// Workloads to sweep; required.
	Workloads []string `json:"workloads"`
	// Schemes evaluated in every cell; default all five.
	Schemes []string `json:"schemes,omitempty"`
	// Geometries axis; default ["scaled"].
	Geometries []string `json:"geometries,omitempty"`
	// Inclusion policy shared by every cell; default "inclusive".
	Inclusion string `json:"inclusion,omitempty"`
	// Seeds axis; default [1]. Zero is rejected (the job layer would
	// silently rewrite it to 1, colliding with an explicit 1).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Cores axis; default [0] meaning "the geometry preset's count".
	Cores []int `json:"cores,omitempty"`
	// RefsPerCore axis; default [0] meaning "the preset's length".
	RefsPerCore []uint64 `json:"refs_per_core,omitempty"`
	// WarmupRefsPerCore applies to every cell.
	WarmupRefsPerCore uint64 `json:"warmup_refs_per_core,omitempty"`
	// Prefetch applies to every cell.
	Prefetch bool `json:"prefetch,omitempty"`
	// TimeoutSeconds bounds each child's execution.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// MaxInFlight bounds how many children the orchestrator keeps
	// submitted at once; default 4. The ceiling keeps one sweep from
	// monopolising the admission queue.
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// Child is one cell of the expanded grid: a single workload simulated
// under the grid's full scheme list at one (geometry, cores, refs,
// seed) point. Index is the cell's position in expansion order — the
// aggregation order, and the key the orchestrator files results under.
type Child struct {
	Index       int    `json:"index"`
	Workload    string `json:"workload"`
	Geometry    string `json:"geometry"`
	Cores       int    `json:"cores"`
	RefsPerCore uint64 `json:"refs_per_core"`
	Seed        uint64 `json:"seed"`
}

// Normalize fills defaults, validates every axis and returns the grid
// in canonical form (duplicates removed, order preserved). Child specs
// are re-validated by the job layer at admission; validating here too
// turns an impossible sweep into an immediate 400 instead of a failed
// child after queueing.
func (g Grid) Normalize() (Grid, error) {
	if len(g.Workloads) == 0 {
		return Grid{}, fmt.Errorf("sweep: grid requires at least one workload")
	}
	known := make(map[string]bool)
	for _, name := range workload.BenchmarkNames() {
		known[name] = true
	}
	g.Workloads = Dedupe(g.Workloads)
	for _, w := range g.Workloads {
		if !known[w] {
			return Grid{}, fmt.Errorf("sweep: unknown workload %q", w)
		}
	}
	if len(g.Schemes) == 0 {
		for _, sc := range sim.Schemes() {
			g.Schemes = append(g.Schemes, sc.String())
		}
	}
	g.Schemes = Dedupe(g.Schemes)
	for _, name := range g.Schemes {
		if _, err := sim.ParseScheme(name); err != nil {
			return Grid{}, err
		}
	}
	if len(g.Geometries) == 0 {
		g.Geometries = []string{"scaled"}
	}
	g.Geometries = Dedupe(g.Geometries)
	for _, geo := range g.Geometries {
		if _, err := sim.Preset(geo); err != nil {
			return Grid{}, err
		}
	}
	if g.Inclusion == "" {
		g.Inclusion = "inclusive"
	}
	if _, err := sim.ParseInclusion(g.Inclusion); err != nil {
		return Grid{}, err
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{1}
	}
	g.Seeds = Dedupe(g.Seeds)
	for _, s := range g.Seeds {
		if s == 0 {
			return Grid{}, fmt.Errorf("sweep: seed must be >= 1")
		}
	}
	if len(g.Cores) == 0 {
		g.Cores = []int{0}
	}
	g.Cores = Dedupe(g.Cores)
	for _, c := range g.Cores {
		if c < 0 {
			return Grid{}, fmt.Errorf("sweep: cores must be >= 0, got %d", c)
		}
	}
	if len(g.RefsPerCore) == 0 {
		g.RefsPerCore = []uint64{0}
	}
	g.RefsPerCore = Dedupe(g.RefsPerCore)
	if g.TimeoutSeconds < 0 {
		return Grid{}, fmt.Errorf("sweep: timeout_seconds must be >= 0, got %g", g.TimeoutSeconds)
	}
	if g.MaxInFlight < 0 {
		return Grid{}, fmt.Errorf("sweep: max_in_flight must be >= 0, got %d", g.MaxInFlight)
	}
	if g.MaxInFlight == 0 {
		g.MaxInFlight = 4
	}
	return g, nil
}

// Count returns the child count of the expanded grid without
// materialising it, so an oversized sweep is rejected in O(1).
func (g Grid) Count() int {
	return len(g.Workloads) * len(g.Geometries) * len(g.Cores) * len(g.RefsPerCore) * len(g.Seeds)
}

// Runs returns the total simulation runs the sweep performs:
// children x schemes.
func (g Grid) Runs() int { return g.Count() * len(g.Schemes) }

// Expand materialises the grid's cells in canonical order — workload
// outermost, then geometry, cores, refs, seed — which is both the
// submission order and the aggregation order. The grid must be
// normalised.
func (g Grid) Expand() []Child {
	children := make([]Child, 0, g.Count())
	for _, wl := range g.Workloads {
		for _, geo := range g.Geometries {
			for _, cores := range g.Cores {
				for _, refs := range g.RefsPerCore {
					for _, seed := range g.Seeds {
						children = append(children, Child{
							Index:       len(children),
							Workload:    wl,
							Geometry:    geo,
							Cores:       cores,
							RefsPerCore: refs,
							Seed:        seed,
						})
					}
				}
			}
		}
	}
	return children
}

// Dedupe removes duplicates preserving first-occurrence order. Grid and
// serve job-spec normalisation both use it, so equal lists normalise
// alike.
func Dedupe[T comparable](in []T) []T {
	out := make([]T, 0, len(in))
	seen := make(map[T]bool, len(in))
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
