package sweep

import (
	"fmt"
	"strings"

	"redhip/internal/energy"
	"redhip/internal/sim"
	"redhip/internal/stats"
)

// Artifacts are a finished sweep's paper-figure outputs: one Fig
// 9-style per-level hit-rate table per scheme, plus a Fig 7-style
// dynamic-energy table (normalised to the base scheme when the grid
// includes it, absolute nanojoules otherwise). Every number derives
// only from deterministic simulation outputs — hit counts, energy
// meters, cycle counts — never from IDs, timestamps or scheduling, so
// two runs of the same grid render byte-identical artifacts no matter
// how their children interleaved or deduplicated.
type Artifacts struct {
	Grid     Grid           `json:"grid"`
	Children int            `json:"children"`
	Runs     int            `json:"runs"`
	HitRates []*stats.Table `json:"hit_rates"`
	Energy   *stats.Table   `json:"energy"`
	// Text is the rendered artifact: every table as aligned monospace
	// text, the form the smoke script diffs for bit-identity.
	Text string `json:"text"`
}

// Aggregate folds the children's results into Artifacts. results is
// indexed by Child.Index; each entry holds one sim.Result per grid
// scheme (the child job's single-pass output). The grid must be
// normalised and every child complete — a sweep with failed children
// has no artifacts.
func Aggregate(g Grid, children []Child, results [][]*sim.Result) (*Artifacts, error) {
	if len(results) != len(children) {
		return nil, fmt.Errorf("sweep: %d result sets for %d children", len(results), len(children))
	}
	// byScheme[s][childIndex] is the cell's result under scheme s.
	byScheme := make(map[string][]*sim.Result, len(g.Schemes))
	for _, name := range g.Schemes {
		byScheme[name] = make([]*sim.Result, len(children))
	}
	for i, set := range results {
		if len(set) == 0 {
			return nil, fmt.Errorf("sweep: child %d has no results", i)
		}
		for _, res := range set {
			if res == nil {
				return nil, fmt.Errorf("sweep: child %d has a nil result", i)
			}
			slot, ok := byScheme[res.Scheme.String()]
			if !ok {
				return nil, fmt.Errorf("sweep: child %d returned result for scheme %q outside the grid", i, res.Scheme)
			}
			slot[i] = res
		}
	}
	for _, name := range g.Schemes {
		for i, res := range byScheme[name] {
			if res == nil {
				return nil, fmt.Errorf("sweep: child %d missing result for scheme %q", i, name)
			}
		}
	}

	// cells[w] lists the children of workload w in expansion order.
	cells := make([][]int, len(g.Workloads))
	for w, wl := range g.Workloads {
		for i, child := range children {
			if child.Workload == wl {
				cells[w] = append(cells[w], i)
			}
		}
	}
	// mean renders one table whose cells average value over each
	// workload's grid cells, plus the average across workloads.
	mean := func(title, head string, rows []string, value func(row, child int) float64,
		format func(float64) string) *stats.Table {
		return stats.MeanTable(title, append([]string{head}, g.Workloads...), rows,
			func(row, w int) []float64 {
				vals := make([]float64, len(cells[w]))
				for k, i := range cells[w] {
					vals[k] = value(row, i)
				}
				return vals
			},
			func(_ int, v float64) string { return format(v) }, true)
	}

	cellsPerWorkload := len(g.Geometries) * len(g.Cores) * len(g.RefsPerCore) * len(g.Seeds)
	a := &Artifacts{Grid: g, Children: len(children), Runs: len(children) * len(g.Schemes)}

	// Fig 9-style tables: per-level hit rates for each scheme, one
	// column per workload plus the average, each cell the mean over the
	// workload's grid cells.
	var levels []string
	for l := energy.L1; l < energy.NumLevels; l++ {
		levels = append(levels, l.String())
	}
	for _, name := range g.Schemes {
		a.HitRates = append(a.HitRates, mean(
			fmt.Sprintf("Per-level hit rates (%s), mean over %d grid cells/workload", name, cellsPerWorkload),
			"level", levels,
			func(l, i int) float64 { return byScheme[name][i].HitRate(energy.Level(l)) },
			func(v float64) string { return stats.Pct(v, false) }))
	}

	// Fig 7-style table: dynamic energy per scheme. When the grid
	// includes the base scheme each cell normalises to its own base run
	// (same workload, geometry, cores, refs, seed), exactly as Figure 7
	// normalises per workload; without a base the table reports
	// absolute dynamic nanojoules.
	base := byScheme[sim.Base.String()]
	title := "Total dynamic energy (nJ)"
	value := func(res *sim.Result, _ int) float64 { return res.DynamicNJ() }
	format := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	if base != nil {
		title = "Dynamic energy normalised to base (lower is better)"
		value = func(res *sim.Result, i int) float64 { return res.DynamicEnergyRatio(base[i]) }
		format = func(v float64) string { return stats.Pct(v, false) }
	}
	var schemes []string
	for _, name := range g.Schemes {
		if base == nil || name != sim.Base.String() {
			schemes = append(schemes, name)
		}
	}
	a.Energy = mean(title, "scheme", schemes,
		func(s, i int) float64 { return value(byScheme[schemes[s]][i], i) }, format)

	var b strings.Builder
	fmt.Fprintf(&b, "sweep aggregate: %d children, %d runs\n\n", a.Children, a.Runs)
	for _, t := range a.HitRates {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	b.WriteString(a.Energy.String())
	a.Text = b.String()
	return a, nil
}
