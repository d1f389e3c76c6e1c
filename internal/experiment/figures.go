package experiment

import (
	"fmt"

	"redhip/internal/energy"
	"redhip/internal/sim"
	"redhip/internal/stats"
)

// Figure couples a rendered table with the paper artefact it reproduces.
type Figure struct {
	// ID is the paper artefact ("Table I", "Fig 6", ...).
	ID string
	// Caption summarises what the paper reports there.
	Caption string
	// Table holds the regenerated rows.
	Table *stats.Table
}

// Entry is one item of the figure list: its redhip-bench -experiment
// name and its builder.
type Entry struct {
	Name     string
	Ablation bool
	Build    func(*Runner) (*Figure, error)
}

// Catalog lists every table and figure of the evaluation in paper
// order, then every ablation. All, Ablations and redhip-bench's
// -experiment names all derive from it.
var Catalog = []Entry{
	{"table1", false, (*Runner).tableIFigure},
	{"fig1", false, func(r *Runner) (*Figure, error) { return r.Fig1CacheSizeTrend(), nil }},
	{"fig1-energy", false, (*Runner).Fig1EnergyBreakdown},
	{"fig6", false, (*Runner).Fig6Speedup},
	{"fig7", false, (*Runner).Fig7DynamicEnergy},
	{"fig8", false, (*Runner).Fig8Metric},
	{"fig9", false, (*Runner).Fig9HitRatesBase},
	{"fig10", false, (*Runner).Fig10HitRatesReDHiP},
	{"fig11", false, (*Runner).Fig11TableSize},
	{"fig12", false, (*Runner).Fig12RecalPeriod},
	{"fig13", false, (*Runner).Fig13Inclusion},
	{"fig14", false, (*Runner).Fig14PrefetchSpeedup},
	{"fig15", false, (*Runner).Fig15PrefetchEnergy},
	{"ablation-hash", true, (*Runner).AblationHash},
	{"ablation-cbf", true, (*Runner).AblationCBFCounters},
	{"ablation-banks", true, (*Runner).AblationBanks},
	{"ablation-replacement", true, (*Runner).AblationReplacement},
	{"ablation-fills", true, (*Runner).AblationFills},
	{"ablation-adaptive", true, (*Runner).AblationAdaptive},
	{"ablation-memlat", true, (*Runner).AblationMemoryLatency},
}

// Lookup returns the Catalog entry with the given name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Catalog {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// All regenerates every table and figure of the evaluation in paper
// order.
func (r *Runner) All() ([]*Figure, error) { return r.build(false) }

// Ablations regenerates all ablation studies.
func (r *Runner) Ablations() ([]*Figure, error) { return r.build(true) }

func (r *Runner) build(ablations bool) ([]*Figure, error) {
	var figs []*Figure
	for _, e := range Catalog {
		if e.Ablation != ablations {
			continue
		}
		f, err := e.Build(r)
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// variant is one row of a figure: its label, the run it measures, and
// the run that normalises it (nil when the figure's metrics read the
// run alone). Both start from the base configuration with prefetch
// off and are changed by their function.
type variant struct {
	label     string
	run, base func(*sim.Config)
}

// metric is one quantity a figure reads from a run and its base, and
// the format its cells print in. vary, when non-nil, further changes
// the row's run for this metric alone.
type metric struct {
	name   string
	value  func(res, base *sim.Result) float64
	format func(float64) string
	vary   func(*sim.Config)
}

// figure declares one table of metric means over variants.
type figure struct {
	id, caption, title string
	head               string // header of the label column
	rows               []variant
	metrics            []metric
}

// jobFor returns wl run on the base configuration with prefetch off,
// changed by each non-nil set in turn.
func (r *Runner) jobFor(wl string, set ...func(*sim.Config)) job {
	cfg := r.opts.Base
	cfg.EnablePrefetch = false
	for _, s := range set {
		if s != nil {
			s(&cfg)
		}
	}
	return job{workload: wl, cfg: cfg}
}

// measure runs f's jobs as one batch — for each workload, each row's
// base and then its run under each metric — and returns
// vals[row][metric][workload].
func (r *Runner) measure(f figure, workloads []string) ([][][]float64, error) {
	var jobs []job
	for _, wl := range workloads {
		for _, v := range f.rows {
			if v.base != nil {
				jobs = append(jobs, r.jobFor(wl, v.base))
			}
			for _, m := range f.metrics {
				jobs = append(jobs, r.jobFor(wl, v.run, m.vary))
			}
		}
	}
	res, err := r.results(jobs)
	if err != nil {
		return nil, err
	}
	vals := make([][][]float64, len(f.rows))
	for v := range vals {
		vals[v] = make([][]float64, len(f.metrics))
		for m := range vals[v] {
			vals[v][m] = make([]float64, len(workloads))
		}
	}
	for w := range workloads {
		for v, row := range f.rows {
			var base *sim.Result
			if row.base != nil {
				base, res = res[0], res[1:]
			}
			for m, mt := range f.metrics {
				vals[v][m][w] = mt.value(res[0], base)
				res = res[1:]
			}
		}
	}
	return vals, nil
}

// workloadFigure renders f with one column per evaluated workload plus
// their average. Each row is one variant under one metric, labelled by
// both names joined (a figure varies one of the two), and every cell
// prints in the first metric's format.
func (r *Runner) workloadFigure(f figure) (*Figure, error) {
	vals, err := r.measure(f, r.opts.Workloads)
	if err != nil {
		return nil, err
	}
	var labels []string
	var cells [][]float64
	for v, row := range f.rows {
		for m, mt := range f.metrics {
			labels = append(labels, row.label+mt.name)
			cells = append(cells, vals[v][m])
		}
	}
	t := stats.MeanTable(f.title, append([]string{f.head}, r.opts.Workloads...), labels,
		func(row, col int) []float64 { return cells[row][col : col+1] },
		func(_ int, v float64) string { return f.metrics[0].format(v) }, true)
	return &Figure{ID: f.id, Caption: f.caption, Table: t}, nil
}

// Metric values shared by the figure declarations.
func speedup(res, base *sim.Result) float64      { return res.Speedup(base) }
func energyRatio(res, base *sim.Result) float64  { return res.DynamicEnergyRatio(base) }
func energySaving(res, base *sim.Result) float64 { return 1 - res.DynamicEnergyRatio(base) }

// Cell formats shared by the figure declarations.
func pct(v float64) string       { return stats.Pct(v, false) }
func signedPct(v float64) string { return stats.Pct(v, true) }

// scheme sets the scheme under test.
func scheme(s sim.Scheme) func(*sim.Config) {
	return func(c *sim.Config) { c.Scheme = s }
}

// baseRun is the Base-scheme run every normalisation divides by.
var baseRun = scheme(sim.Base)

// redhipWith is the ReDHiP run changed by set, normalised to baseRun.
func redhipWith(label string, set func(*sim.Config)) variant {
	return variant{label, func(c *sim.Config) { c.Scheme = sim.ReDHiP; set(c) }, baseRun}
}

// sameSetting is the ReDHiP run normalised to the Base run, both
// changed by set (inclusion, replacement, accounting, memory latency).
func sameSetting(label string, set func(*sim.Config)) variant {
	return variant{label,
		func(c *sim.Config) { set(c); c.Scheme = sim.ReDHiP },
		func(c *sim.Config) { set(c); c.Scheme = sim.Base }}
}

// schemeRows is one row per scheme, each normalised to baseRun.
func schemeRows(schemes ...sim.Scheme) []variant {
	var rows []variant
	for _, s := range schemes {
		rows = append(rows, variant{s.String(), scheme(s), baseRun})
	}
	return rows
}

// levelMetrics reads value at each cache level, one metric per level.
func levelMetrics(value func(res *sim.Result, l energy.Level) float64) []metric {
	var ms []metric
	for l := energy.L1; l < energy.NumLevels; l++ {
		ms = append(ms, metric{name: l.String(), format: pct,
			value: func(res, _ *sim.Result) float64 { return value(res, l) }})
	}
	return ms
}

func (r *Runner) tableIFigure() (*Figure, error) {
	return &Figure{
		ID:      "Table I",
		Caption: "Architecture parameters used by the simulation.",
		Table:   r.TableI(),
	}, nil
}

// TableI renders the architecture parameters of Table I as configured,
// which documents exactly what geometry a run used (paper-exact or
// scaled).
func (r *Runner) TableI() *stats.Table {
	cfg := r.opts.Base
	t := stats.NewTable(
		fmt.Sprintf("Table I: architecture parameters (%d cores, %.1f GHz, workload scale 1/%d)",
			cfg.Cores, cfg.Energy.ClockGHz, cfg.WorkloadScale),
		"structure", "size", "ways", "delay (cycles)", "access energy (nJ)", "leakage (W)")
	lv := cfg.Energy.Levels
	row := func(name string, size uint64, ways int, l energy.Level) {
		delay := fmt.Sprintf("%d", lv[l].ParallelDelay())
		e := fmt.Sprintf("%.4f", lv[l].ParallelNJ())
		if lv[l].TagNJ > 0 {
			delay = fmt.Sprintf("tag %d / data %d", lv[l].TagDelay, lv[l].DataDelay)
			e = fmt.Sprintf("tag %.3f / data %.3f", lv[l].TagNJ, lv[l].DataNJ)
		}
		t.AddRow(name, sizeStr(size), fmt.Sprintf("%d", ways), delay, e, fmt.Sprintf("%.4f", lv[l].LeakW))
	}
	row("L1 (private)", cfg.L1.SizeBytes, cfg.L1.Ways, energy.L1)
	row("L2 (private)", cfg.L2.SizeBytes, cfg.L2.Ways, energy.L2)
	row("L3 (private)", cfg.L3.SizeBytes, cfg.L3.Ways, energy.L3)
	row("L4 (shared)", cfg.L4.SizeBytes, cfg.L4.Ways, energy.L4)
	t.AddRow("Prediction Table", sizeStr(cfg.PTBytes), "direct-mapped",
		fmt.Sprintf("access %d + wire %d", cfg.Energy.PTDelay, cfg.Energy.PTWireDelay),
		fmt.Sprintf("%.4f", cfg.Energy.PTAccessNJ), "-")
	return t
}

func sizeStr(b uint64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Fig1CacheSizeTrend reproduces the literal Figure 1: the capacities
// and rough introduction years of each cache level in commercial
// processors — the "bigger and deeper" trend that motivates the paper.
// The data is transcribed from the figure; it involves no simulation.
func (r *Runner) Fig1CacheSizeTrend() *Figure {
	t := stats.NewTable("Hardware cache levels in commercial processors: introduction era and typical capacity growth",
		"level", "appeared (approx.)", "early size", "size by 2012", "role")
	t.AddRow("L1", "1987", "4-16K", "32-64K", "minimise access time")
	t.AddRow("L2", "1992", "128-256K", "256K-1M", "latency/hit-rate balance")
	t.AddRow("L3", "2002", "1-2M", "4-32M", "maximise hit rate")
	t.AddRow("L4", "2012", "32-128M", "64-128M (eDRAM)", "off-chip traffic filter")
	return &Figure{
		ID:      "Fig 1",
		Caption: "More levels were introduced over the decades and every level keeps growing; deep 4-level hierarchies make full-hierarchy misses expensive in both latency and energy.",
		Table:   t,
	}
}

// Fig1EnergyBreakdown reproduces the Section I motivation: in the base
// configuration the infrequently accessed L3/L4 consume the bulk
// (~80%) of the dynamic cache energy.
func (r *Runner) Fig1EnergyBreakdown() (*Figure, error) {
	return r.workloadFigure(figure{
		id:      "Fig 1 (energy motivation)",
		caption: "Lower levels (L3+L4) consume the overwhelming share of dynamic cache energy despite being accessed infrequently (paper: ~80%).",
		title:   "Share of dynamic cache energy by level (Base)",
		head:    "level",
		rows:    []variant{{run: baseRun}},
		metrics: levelMetrics(func(res *sim.Result, l energy.Level) float64 {
			return res.Dynamic.LevelNJ(l) / res.DynamicNJ()
		}),
	})
}

// Fig6Speedup reproduces Figure 6: performance speedup of Oracle, CBF,
// Phased Cache and ReDHiP over the Base case.
func (r *Runner) Fig6Speedup() (*Figure, error) {
	return r.workloadFigure(figure{
		id:      "Fig 6",
		caption: "Paper: ReDHiP +8% average (Oracle +13%, CBF <+4%, Phased -3%).",
		title:   "Performance speedup vs Base",
		head:    "scheme",
		rows:    schemeRows(sim.Oracle, sim.CBF, sim.Phased, sim.ReDHiP),
		metrics: []metric{{value: speedup, format: signedPct}},
	})
}

// Fig7DynamicEnergy reproduces Figure 7: dynamic energy consumption
// normalised to Base (lower is better).
func (r *Runner) Fig7DynamicEnergy() (*Figure, error) {
	return r.workloadFigure(figure{
		id:      "Fig 7",
		caption: "Paper: ReDHiP 39% of base (61% saving); Oracle 29%, CBF 82%, Phased 45%.",
		title:   "Dynamic energy normalised to Base",
		head:    "scheme",
		rows:    schemeRows(sim.Oracle, sim.CBF, sim.Phased, sim.ReDHiP),
		metrics: []metric{{value: energyRatio, format: pct}},
	})
}

// Fig8Metric reproduces Figure 8: the performance-energy metric, the
// product of performance gain and total (dynamic+static) energy saving.
func (r *Runner) Fig8Metric() (*Figure, error) {
	return r.workloadFigure(figure{
		id:      "Fig 8",
		caption: "Paper: ReDHiP achieves by far the best performance-energy trade-off.",
		title:   "Performance-energy metric (higher is better)",
		head:    "scheme",
		rows:    schemeRows(sim.CBF, sim.Phased, sim.ReDHiP),
		metrics: []metric{{
			value:  func(res, base *sim.Result) float64 { return res.PerformanceEnergyMetric(base) },
			format: func(v float64) string { return fmt.Sprintf("%.3f", v) },
		}},
	})
}

// hitRateFigure renders per-level hit rates for one scheme.
func (r *Runner) hitRateFigure(id, caption string, s sim.Scheme) (*Figure, error) {
	return r.workloadFigure(figure{
		id:      id,
		caption: caption,
		title:   fmt.Sprintf("Per-level hit rates (%s)", s),
		head:    "level",
		rows:    []variant{{run: scheme(s)}},
		metrics: levelMetrics((*sim.Result).HitRate),
	})
}

// Fig9HitRatesBase reproduces Figure 9: hit rate of each cache level in
// the base case.
func (r *Runner) Fig9HitRatesBase() (*Figure, error) {
	return r.hitRateFigure("Fig 9", "Base-case per-level hit rates.", sim.Base)
}

// Fig10HitRatesReDHiP reproduces Figure 10: hit rates with ReDHiP.
// Skipped lookups raise L2/L3/L4 hit rates (paper: +14%/+12%/+18%).
func (r *Runner) Fig10HitRatesReDHiP() (*Figure, error) {
	return r.hitRateFigure("Fig 10", "Per-level hit rates with ReDHiP; paper: L2/L3/L4 improve by 14%/12%/18% average.", sim.ReDHiP)
}

// Fig11TableSizes are the prediction-table capacities of Figure 11 at
// paper scale.
var Fig11TableSizes = []uint64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}

// Fig11TableSize reproduces Figure 11: ReDHiP dynamic energy as the
// table shrinks from 2MB to 64KB (prediction overhead ignored, as in
// the paper's sensitivity study).
func (r *Runner) Fig11TableSize() (*Figure, error) {
	var rows []variant
	for i := len(Fig11TableSizes) - 1; i >= 0; i-- {
		size := Fig11TableSizes[i]
		rows = append(rows, redhipWith(sizeStr(size), func(c *sim.Config) {
			c.PTBytes = size / c.WorkloadScale
			c.IgnorePredictionOverhead = true
		}))
	}
	return r.workloadFigure(figure{
		id:      "Fig 11",
		caption: "Paper: gains become marginal beyond 512KB; the table is almost useless below 64KB.",
		title:   "ReDHiP dynamic energy vs prediction table size (normalised to Base; overhead ignored)",
		head:    "table size",
		rows:    rows,
		metrics: []metric{{value: energyRatio, format: pct}},
	})
}

// Fig12RecalPeriods are the recalibration periods of Figure 12 at paper
// scale, in L1 misses; 0 means never recalibrate.
var Fig12RecalPeriods = []uint64{1, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 0}

// Fig12RecalPeriod reproduces Figure 12: ReDHiP dynamic energy as the
// recalibration period grows from every miss to never (overhead
// ignored, as in the paper).
func (r *Runner) Fig12RecalPeriod() (*Figure, error) {
	var rows []variant
	for _, p := range Fig12RecalPeriods {
		label := fmt.Sprintf("%d", p)
		switch {
		case p == 0:
			label = "never"
		case p >= 1_000_000:
			label = fmt.Sprintf("%dM", p/1_000_000)
		case p >= 1_000:
			label = fmt.Sprintf("%dK", p/1_000)
		}
		rows = append(rows, redhipWith(label, func(c *sim.Config) {
			c.IgnorePredictionOverhead = true
			c.RecalPeriod = p / c.WorkloadScale
			if p > 0 && c.RecalPeriod == 0 {
				c.RecalPeriod = 1
			}
		}))
	}
	return r.workloadFigure(figure{
		id:      "Fig 12",
		caption: "Paper: recalibrating at least every 1M L1 misses is critical; more frequent helps little.",
		title:   "ReDHiP dynamic energy vs recalibration period in L1 misses (normalised to Base; overhead ignored)",
		head:    "period",
		rows:    rows,
		metrics: []metric{{value: energyRatio, format: pct}},
	})
}

// Fig13Inclusion reproduces Figure 13: ReDHiP dynamic energy savings
// under the three inclusion policies, each normalised to the Base run
// with the same policy.
func (r *Runner) Fig13Inclusion() (*Figure, error) {
	var rows []variant
	for _, pol := range []sim.InclusionPolicy{sim.Inclusive, sim.Hybrid, sim.Exclusive} {
		rows = append(rows, sameSetting(pol.String(), func(c *sim.Config) { c.Inclusion = pol }))
	}
	return r.workloadFigure(figure{
		id:      "Fig 13",
		caption: "Paper: hybrid ~= inclusive; exclusive saves ~15% less but still >40% over its base.",
		title:   "ReDHiP dynamic energy savings by inclusion policy (vs Base under the same policy)",
		head:    "policy",
		rows:    rows,
		metrics: []metric{{value: energySaving, format: pct}},
	})
}

// prefetchRows are the SP/ReDHiP combinations of Figures 14-15, each
// against a base with neither.
var prefetchRows = []variant{
	{"SP only", func(c *sim.Config) { c.Scheme, c.EnablePrefetch = sim.Base, true }, baseRun},
	{"ReDHiP only", scheme(sim.ReDHiP), baseRun},
	{"SP+ReDHiP", func(c *sim.Config) { c.Scheme, c.EnablePrefetch = sim.ReDHiP, true }, baseRun},
}

// Fig14PrefetchSpeedup reproduces Figure 14: speedup of stride prefetch
// only, ReDHiP only, and both combined, over a base with neither.
func (r *Runner) Fig14PrefetchSpeedup() (*Figure, error) {
	return r.workloadFigure(figure{
		id:      "Fig 14",
		caption: "Paper: SP and ReDHiP speedups are complementary and combine additively.",
		title:   "Speedup vs Base (no prefetch, no prediction)",
		head:    "mechanism",
		rows:    prefetchRows,
		metrics: []metric{{value: speedup, format: signedPct}},
	})
}

// Fig15PrefetchEnergy reproduces Figure 15: dynamic energy of the same
// three configurations normalised to the no-mechanism base.
func (r *Runner) Fig15PrefetchEnergy() (*Figure, error) {
	return r.workloadFigure(figure{
		id:      "Fig 15",
		caption: "Paper: prefetching alone costs energy; ReDHiP offsets it; the combination lands between the two.",
		title:   "Dynamic energy normalised to Base (no prefetch, no prediction)",
		head:    "mechanism",
		rows:    prefetchRows,
		metrics: []metric{{value: energyRatio, format: pct}},
	})
}
