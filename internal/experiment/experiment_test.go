package experiment

import (
	"strings"
	"testing"

	"redhip/internal/sim"
)

// mustRunner builds a runner, failing the test on invalid options.
func mustRunner(t testing.TB, opts Options) *Runner {
	t.Helper()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// tinyRunner uses the smoke configuration over two workloads so the
// whole figure pipeline stays fast.
func tinyRunner(t *testing.T) *Runner {
	t.Helper()
	cfg := sim.Smoke()
	cfg.RefsPerCore = 8_000
	return mustRunner(t, Options{
		Base:      cfg,
		Seed:      3,
		Workloads: []string{"mcf", "lbm"},
	})
}

func TestOptionsDefaults(t *testing.T) {
	r := mustRunner(t, Options{})
	if len(r.Workloads()) != 11 {
		t.Fatalf("default workloads = %d, want 11", len(r.Workloads()))
	}
	if r.BaseConfig().Cores == 0 {
		t.Fatal("base config not filled")
	}
}

func TestTableIRendering(t *testing.T) {
	r := tinyRunner(t)
	tab := r.TableI()
	s := tab.String()
	for _, want := range []string{"L1", "L4", "Prediction Table", "leakage"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("Table I rows = %d, want 5", len(tab.Rows))
	}
}

func TestRunnerMemoisation(t *testing.T) {
	r := tinyRunner(t)
	if _, err := r.Fig6Speedup(); err != nil {
		t.Fatal(err)
	}
	n := r.CacheSize()
	if n == 0 {
		t.Fatal("no runs cached")
	}
	// Figures 7 and 8 reuse exactly the same runs.
	if _, err := r.Fig7DynamicEnergy(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig8Metric(); err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != n {
		t.Fatalf("figures 7/8 re-ran simulations: %d -> %d", n, r.CacheSize())
	}
}

func TestFig6Shape(t *testing.T) {
	r := tinyRunner(t)
	f, err := r.Fig6Speedup()
	if err != nil {
		t.Fatal(err)
	}
	tab := f.Table
	// scheme + 2 workloads + average.
	if len(tab.Columns) != 4 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 schemes", len(tab.Rows))
	}
	if tab.Rows[0][0] != "oracle" || tab.Rows[3][0] != "redhip" {
		t.Fatalf("scheme order: %v", tab.Rows)
	}
	// Base row is not present (everything is relative to it).
	for _, row := range tab.Rows {
		if row[0] == "base" {
			t.Fatal("base listed as a scheme")
		}
	}
}

func TestFig9AndFig10Shapes(t *testing.T) {
	r := tinyRunner(t)
	f9, err := r.Fig9HitRatesBase()
	if err != nil {
		t.Fatal(err)
	}
	f10, err := r.Fig10HitRatesReDHiP()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Figure{f9, f10} {
		if len(f.Table.Rows) != 4 {
			t.Fatalf("%s rows = %d, want 4 levels", f.ID, len(f.Table.Rows))
		}
	}
	// L1 hit rates must match between the two (prediction happens after
	// the L1 access).
	if f9.Table.Rows[0][1] != f10.Table.Rows[0][1] {
		t.Errorf("L1 hit rate changed with ReDHiP: %s vs %s",
			f9.Table.Rows[0][1], f10.Table.Rows[0][1])
	}
}

func TestFig11Shape(t *testing.T) {
	r := tinyRunner(t)
	f, err := r.Fig11TableSize()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Table.Rows) != len(Fig11TableSizes) {
		t.Fatalf("rows = %d, want %d sizes", len(f.Table.Rows), len(Fig11TableSizes))
	}
	// Largest table listed first (2M), smallest last (64K).
	if f.Table.Rows[0][0] != "2M" || f.Table.Rows[len(f.Table.Rows)-1][0] != "64K" {
		t.Fatalf("size order: %v ... %v", f.Table.Rows[0][0], f.Table.Rows[len(f.Table.Rows)-1][0])
	}
}

func TestFig12Shape(t *testing.T) {
	r := tinyRunner(t)
	f, err := r.Fig12RecalPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Table.Rows) != len(Fig12RecalPeriods) {
		t.Fatalf("rows = %d", len(f.Table.Rows))
	}
	if f.Table.Rows[0][0] != "1" || f.Table.Rows[len(f.Table.Rows)-1][0] != "never" {
		t.Fatalf("period labels: %v ... %v", f.Table.Rows[0][0], f.Table.Rows[len(f.Table.Rows)-1][0])
	}
}

func TestFig13Shape(t *testing.T) {
	r := tinyRunner(t)
	f, err := r.Fig13Inclusion()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(f.Table.Rows))
	}
	wantOrder := []string{"inclusive", "hybrid", "exclusive"}
	for i, w := range wantOrder {
		if f.Table.Rows[i][0] != w {
			t.Fatalf("policy order %v", f.Table.Rows)
		}
	}
}

func TestFig14And15Shapes(t *testing.T) {
	r := tinyRunner(t)
	f14, err := r.Fig14PrefetchSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	f15, err := r.Fig15PrefetchEnergy()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Figure{f14, f15} {
		if len(f.Table.Rows) != 3 {
			t.Fatalf("%s rows = %d, want 3 mechanisms", f.ID, len(f.Table.Rows))
		}
		if f.Table.Rows[0][0] != "SP only" || f.Table.Rows[2][0] != "SP+ReDHiP" {
			t.Fatalf("%s mechanism order: %v", f.ID, f.Table.Rows)
		}
	}
}

func TestFig1Breakdown(t *testing.T) {
	r := tinyRunner(t)
	f, err := r.Fig1EnergyBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Table.Rows) != 4 {
		t.Fatalf("rows = %d", len(f.Table.Rows))
	}
}

func TestAllRegeneratesEverything(t *testing.T) {
	r := tinyRunner(t)
	figs, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 13 { // Table I + Fig 1 (trend + energy) + Figs 6-15
		t.Fatalf("got %d figures, want 13", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
		if f.Table == nil || f.Caption == "" {
			t.Errorf("%s incomplete", f.ID)
		}
	}
	for _, want := range []string{"Table I", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
		"Fig 10", "Fig 11", "Fig 12", "Fig 13", "Fig 14", "Fig 15"} {
		if !ids[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestRunnerPropagatesErrors(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 0 // invalid
	r := mustRunner(t, Options{Base: cfg, Workloads: []string{"mcf"}})
	if _, err := r.Fig6Speedup(); err == nil {
		t.Fatal("invalid config did not error")
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 1000
	r := mustRunner(t, Options{Base: cfg, Workloads: []string{"nonesuch"}})
	if _, err := r.Fig6Speedup(); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestParallelRunnerDeterministic(t *testing.T) {
	mk := func(par int) string {
		cfg := sim.Smoke()
		cfg.RefsPerCore = 4_000
		r := mustRunner(t, Options{Base: cfg, Workloads: []string{"mcf", "lbm"}, Parallelism: par})
		f, err := r.Fig6Speedup()
		if err != nil {
			t.Fatal(err)
		}
		return f.Table.String()
	}
	if mk(1) != mk(4) {
		t.Fatal("parallelism changed figure contents")
	}
}

func TestVerifyAllClaimsHold(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 10_000
	r := mustRunner(t, Options{Base: cfg, Seed: 2, Workloads: []string{"mcf", "lbm", "soplex"}})
	checks, err := r.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 8 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("claim failed: %s (%s)", c.Name, c.Detail)
		}
	}
}

func TestVerifyPropagatesErrors(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 0
	r := mustRunner(t, Options{Base: cfg, Workloads: []string{"mcf"}})
	if _, err := r.Verify(); err == nil {
		t.Fatal("invalid config did not error")
	}
}
