package sweep

import (
	"reflect"
	"strings"
	"testing"

	"redhip/internal/sim"
	"redhip/internal/workload"
)

func TestGridNormalizeDefaults(t *testing.T) {
	g, err := Grid{Workloads: []string{"mcf", "mcf", "milc"}}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if !reflect.DeepEqual(g.Workloads, []string{"mcf", "milc"}) {
		t.Errorf("workloads not deduped in order: %v", g.Workloads)
	}
	if len(g.Schemes) != len(sim.Schemes()) {
		t.Errorf("default schemes = %v, want all %d", g.Schemes, len(sim.Schemes()))
	}
	if !reflect.DeepEqual(g.Geometries, []string{"scaled"}) {
		t.Errorf("default geometry = %v", g.Geometries)
	}
	if g.Inclusion != "inclusive" || !reflect.DeepEqual(g.Seeds, []uint64{1}) {
		t.Errorf("defaults: inclusion=%q seeds=%v", g.Inclusion, g.Seeds)
	}
	if !reflect.DeepEqual(g.Cores, []int{0}) || !reflect.DeepEqual(g.RefsPerCore, []uint64{0}) {
		t.Errorf("defaults: cores=%v refs=%v", g.Cores, g.RefsPerCore)
	}
}

func TestGridNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		grid Grid
	}{
		{"no workloads", Grid{}},
		{"unknown workload", Grid{Workloads: []string{"doom"}}},
		{"unknown scheme", Grid{Workloads: []string{"mcf"}, Schemes: []string{"magic"}}},
		{"unknown geometry", Grid{Workloads: []string{"mcf"}, Geometries: []string{"huge"}}},
		{"unknown inclusion", Grid{Workloads: []string{"mcf"}, Inclusion: "maybe"}},
		{"zero seed", Grid{Workloads: []string{"mcf"}, Seeds: []uint64{0}}},
		{"negative cores", Grid{Workloads: []string{"mcf"}, Cores: []int{-1}}},
		{"negative timeout", Grid{Workloads: []string{"mcf"}, TimeoutSeconds: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.grid.Normalize(); err == nil {
				t.Fatalf("Normalize accepted %s", tc.name)
			}
		})
	}
}

// TestExpandOrder pins the canonical expansion order — workload
// outermost, then geometry, cores, refs, seed — that submission and
// aggregation both index by.
func TestExpandOrder(t *testing.T) {
	g, err := Grid{
		Workloads:   []string{"mcf", "milc"},
		Schemes:     []string{"base", "redhip"},
		Geometries:  []string{"smoke"},
		Seeds:       []uint64{1, 2},
		RefsPerCore: []uint64{1000, 2000},
	}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if g.Count() != 8 {
		t.Fatalf("Count=%d, want 8", g.Count())
	}
	children := g.Expand()
	if len(children) != 8 {
		t.Fatalf("expanded to %d children", len(children))
	}
	want := []Child{
		{"mcf", "smoke", 0, 1000, 1},
		{"mcf", "smoke", 0, 1000, 2},
		{"mcf", "smoke", 0, 2000, 1},
		{"mcf", "smoke", 0, 2000, 2},
		{"milc", "smoke", 0, 1000, 1},
		{"milc", "smoke", 0, 1000, 2},
		{"milc", "smoke", 0, 2000, 1},
		{"milc", "smoke", 0, 2000, 2},
	}
	if !reflect.DeepEqual(children, want) {
		t.Fatalf("expansion order:\n got %v\nwant %v", children, want)
	}
}

// runGrid executes every child of a normalised grid through the real
// engine, returning results indexed by child, as a grid job files them.
func runGrid(t *testing.T, g Grid, children []Child) [][]*sim.Result {
	t.Helper()
	schemes := make([]sim.Scheme, len(g.Schemes))
	byName := make(map[string]sim.Scheme)
	for _, sc := range sim.Schemes() {
		byName[sc.String()] = sc
	}
	for i, name := range g.Schemes {
		schemes[i] = byName[name]
	}
	results := make([][]*sim.Result, len(children))
	for i, c := range children {
		cfg := sim.Smoke()
		if c.RefsPerCore > 0 {
			cfg.RefsPerCore = c.RefsPerCore
		}
		srcs, err := workload.Sources(c.Workload, cfg.Cores, cfg.WorkloadScale, c.Seed)
		if err != nil {
			t.Fatalf("Sources(%s): %v", c.Workload, err)
		}
		res, err := sim.RunMulti(cfg, schemes, srcs)
		if err != nil {
			t.Fatalf("RunMulti(%s seed %d): %v", c.Workload, c.Seed, err)
		}
		results[i] = res
	}
	return results
}

func TestAggregate(t *testing.T) {
	g, err := Grid{
		Workloads:   []string{"mcf", "milc"},
		Schemes:     []string{"base", "redhip"},
		Geometries:  []string{"smoke"},
		Seeds:       []uint64{1, 2},
		RefsPerCore: []uint64{2000},
	}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	children := g.Expand()
	results := runGrid(t, g, children)

	a, err := Aggregate(g, children, results)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if a.Children != 4 || a.Runs != 8 {
		t.Fatalf("artifact sizes %d/%d, want 4/8", a.Children, a.Runs)
	}
	if len(a.HitRates) != 2 {
		t.Fatalf("%d hit-rate tables, want one per scheme", len(a.HitRates))
	}
	for _, want := range []string{
		"Per-level hit rates (base)",
		"Per-level hit rates (redhip)",
		"Dynamic energy normalised to base",
		"mcf", "milc", "average",
	} {
		if !strings.Contains(a.Text, want) {
			t.Fatalf("artifact text missing %q:\n%s", want, a.Text)
		}
	}

	// Aggregation is a pure fold: the same inputs render the same
	// bytes, and result order within a child must not matter (the
	// job files whatever order the engine returned).
	b, err := Aggregate(g, children, results)
	if err != nil {
		t.Fatalf("Aggregate (second): %v", err)
	}
	if a.Text != b.Text {
		t.Fatalf("aggregate text unstable across identical inputs")
	}
	flipped := make([][]*sim.Result, len(results))
	for i, set := range results {
		rev := make([]*sim.Result, len(set))
		for j, r := range set {
			rev[len(set)-1-j] = r
		}
		flipped[i] = rev
	}
	c, err := Aggregate(g, children, flipped)
	if err != nil {
		t.Fatalf("Aggregate (flipped): %v", err)
	}
	if c.Text != a.Text {
		t.Fatalf("aggregate text depends on per-child result order")
	}
}

func TestAggregateRejectsIncompleteResults(t *testing.T) {
	g, err := Grid{
		Workloads:   []string{"mcf"},
		Schemes:     []string{"base", "redhip"},
		Geometries:  []string{"smoke"},
		RefsPerCore: []uint64{1000},
	}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	children := g.Expand()
	results := runGrid(t, g, children)

	if _, err := Aggregate(g, children, nil); err == nil {
		t.Fatalf("Aggregate accepted a missing result set")
	}
	if _, err := Aggregate(g, children, [][]*sim.Result{nil}); err == nil {
		t.Fatalf("Aggregate accepted an empty child result")
	}
	partial := [][]*sim.Result{results[0][:1]}
	if _, err := Aggregate(g, children, partial); err == nil {
		t.Fatalf("Aggregate accepted a child missing a scheme")
	}
}
