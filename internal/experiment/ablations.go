package experiment

import (
	"fmt"

	"redhip/internal/cache"
	"redhip/internal/core"
	"redhip/internal/sim"
	"redhip/internal/stats"
)

// The ablation studies quantify the design decisions DESIGN.md calls
// out, beyond the figures the paper prints:
//
//   - hash: bits-hash (recalibrable in 1 cycle/set) vs xor-hash
//     (slightly better discrimination, serial recalibration) — the
//     paper's Section III-A/B argument.
//   - cbf-counters: CBF counter width vs entry count at fixed area —
//     the accuracy-per-bit trade-off of Section II.
//   - banks: recalibration banking factor vs stall cycles — the
//     "different parallel degree" knob of Section III-B.
//   - replacement: does ReDHiP's benefit depend on LRU?
//   - fills: lookup-only vs lookup+fill energy accounting.
//   - adaptive: the Section IV disable heuristic on a compute-bound
//     code vs a memory-bound one.

// ablationWorkloads is the subset ablations average over (one
// streaming, one pointer-chasing, one strided code).
var ablationWorkloads = []string{"lbm", "mcf", "milc"}

// averagedOver is the title note every averaged ablation carries.
var averagedOver = "average over " + fmt.Sprint(ablationWorkloads)

// ablationFigure renders f averaged over ablationWorkloads: one row
// per variant, one column per metric.
func (r *Runner) ablationFigure(f figure) (*Figure, error) {
	vals, err := r.measure(f, ablationWorkloads)
	if err != nil {
		return nil, err
	}
	header := []string{f.head}
	for _, m := range f.metrics {
		header = append(header, m.name)
	}
	var labels []string
	for _, v := range f.rows {
		labels = append(labels, v.label)
	}
	t := stats.MeanTable(f.title, header, labels,
		func(row, col int) []float64 { return vals[row][col] },
		func(col int, v float64) string { return f.metrics[col].format(v) }, false)
	return &Figure{ID: f.id, Caption: f.caption, Table: t}, nil
}

func accuracy(res, _ *sim.Result) float64   { return res.Pred.Accuracy() }
func recalStall(res, _ *sim.Result) float64 { return float64(res.Pred.RecalCycles) }
func whole(v float64) string                { return fmt.Sprintf("%.0f", v) }

// AblationHash compares the bits-hash table against an equal-size
// xor-hash table: prediction accuracy, dynamic energy, speedup, and
// the recalibration stall both pay.
func (r *Runner) AblationHash() (*Figure, error) {
	var rows []variant
	for _, h := range []core.HashKind{core.HashBits, core.HashXor} {
		rows = append(rows, redhipWith(h.String(), func(c *sim.Config) { c.PTHash = h }))
	}
	return r.ablationFigure(figure{
		id:      "Ablation: hash",
		caption: "The paper's central trade-off (Section III-A/B): xor-hash can discriminate better per lookup, but its entries scatter across the cache so recalibration degrades to one tag per cycle — a stall tens of times larger that erases the accuracy gain. \"Any slight complexity added to the predictor prohibits the possibility of this recalibration process.\"",
		title:   "Prediction-table hash ablation (" + averagedOver + ")",
		head:    "hash",
		rows:    rows,
		metrics: []metric{
			{name: "accuracy", value: accuracy, format: pct},
			{name: "dynamic energy vs base", value: energyRatio, format: pct},
			{name: "speedup", value: speedup, format: signedPct},
			{name: "recal stall cycles", value: recalStall, format: whole},
		},
	})
}

// AblationCBFCounters sweeps the CBF counter width at fixed area: wider
// counters overflow less but afford fewer entries.
func (r *Runner) AblationCBFCounters() (*Figure, error) {
	var rows []variant
	for _, bits := range []uint{2, 3, 4, 8} {
		rows = append(rows, variant{fmt.Sprintf("%d", bits), func(c *sim.Config) {
			c.Scheme, c.CBFCounterBits = sim.CBF, bits
		}, baseRun})
	}
	return r.ablationFigure(figure{
		id:      "Ablation: cbf-counters",
		caption: "At fixed area, fewer bits per counter buy more entries; ReDHiP's 1-bit limit case plus recalibration is the paper's accuracy-per-bit claim.",
		title:   "CBF counter-width ablation at fixed area (" + averagedOver + ")",
		head:    "counter bits",
		rows:    rows,
		metrics: []metric{
			{name: "accuracy", value: accuracy, format: pct},
			{name: "dynamic energy vs base", value: energyRatio, format: pct},
			{name: "speedup", value: speedup, format: signedPct},
		},
	})
}

// AblationBanks sweeps the recalibration banking factor: more banks cut
// the stall linearly at hardware cost (Section III-B's "different
// design effort with different parallel degree").
func (r *Runner) AblationBanks() (*Figure, error) {
	var rows []variant
	for _, banks := range []int{1, 2, 4, 8, 16} {
		rows = append(rows, redhipWith(fmt.Sprintf("%d", banks), func(c *sim.Config) { c.PTBanks = banks }))
	}
	return r.ablationFigure(figure{
		id:      "Ablation: banks",
		caption: "Stall cycles scale as sets/banks; even a single bank keeps the total stall negligible at the 1M-miss period.",
		title:   "Recalibration banking ablation (" + averagedOver + ")",
		head:    "banks",
		rows:    rows,
		metrics: []metric{
			{name: "recal stall cycles", value: recalStall, format: whole},
			{name: "speedup", value: speedup, format: signedPct},
		},
	})
}

// AblationReplacement checks whether ReDHiP's benefit depends on the
// caches' replacement policy.
func (r *Runner) AblationReplacement() (*Figure, error) {
	var rows []variant
	for _, p := range []cache.ReplacementPolicy{cache.LRU, cache.FIFO, cache.Random} {
		rows = append(rows, sameSetting(p.String(), func(c *sim.Config) { c.Replacement = p }))
	}
	return r.ablationFigure(figure{
		id:      "Ablation: replacement",
		caption: "ReDHiP predicts presence, not recency: its savings survive FIFO and Random replacement nearly unchanged.",
		title:   "Replacement-policy ablation (" + averagedOver + "; each vs base with the same policy)",
		head:    "policy",
		rows:    rows,
		metrics: []metric{
			{name: "dynamic energy saving", value: energySaving, format: pct},
			{name: "speedup", value: speedup, format: signedPct},
			{name: "accuracy", value: accuracy, format: pct},
		},
	})
}

// AblationFills contrasts the paper's lookup-only energy accounting
// with accounting that also charges insertion writes.
func (r *Runner) AblationFills() (*Figure, error) {
	return r.ablationFigure(figure{
		id:      "Ablation: fills",
		caption: "Charging the fill writes no predictor can avoid compresses all savings; the paper's 71% Oracle bound implies lookup-only accounting.",
		title:   "Energy-accounting ablation (" + averagedOver + ")",
		head:    "accounting",
		rows: []variant{
			sameSetting("lookups only (paper)", func(c *sim.Config) { c.ChargeFills = false }),
			sameSetting("lookups + fill writes", func(c *sim.Config) { c.ChargeFills = true }),
		},
		metrics: []metric{
			{name: "ReDHiP dynamic saving", value: energySaving, format: pct},
			{name: "Oracle dynamic saving", value: energySaving, format: pct, vary: scheme(sim.Oracle)},
		},
	})
}

// AblationAdaptive evaluates the Section IV disable heuristic on a
// compute-bound code (where prediction is pure overhead) and a
// memory-bound one (where disabling would forfeit the benefit).
func (r *Runner) AblationAdaptive() (*Figure, error) {
	workloads := []string{"computebound", "mcf"}
	variants := []bool{false, true}
	var jobs []job
	for _, wl := range workloads {
		jobs = append(jobs, r.jobFor(wl, baseRun))
		for _, adaptive := range variants {
			jobs = append(jobs, r.jobFor(wl, func(c *sim.Config) { c.Scheme, c.AdaptiveDisable = sim.ReDHiP, adaptive }))
		}
	}
	res, err := r.results(jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Adaptive predictor-disable ablation",
		"workload", "variant", "speedup vs base", "dynamic energy vs base", "epochs disabled")
	for w, wl := range workloads {
		base, runs := res[w*3], res[w*3+1:w*3+3]
		for i, adaptive := range variants {
			run := runs[i]
			name := "always on"
			disabled := "-"
			if adaptive {
				name = "adaptive"
				disabled = fmt.Sprintf("%d/%d", run.Adaptive.DisabledEpochs, run.Adaptive.Epochs)
			}
			t.AddRow(wl, name, signedPct(run.Speedup(base)), pct(run.DynamicEnergyRatio(base)), disabled)
		}
	}
	return &Figure{
		ID:      "Ablation: adaptive",
		Caption: "Section IV: on codes with very high L1 hit rates the mechanism disables itself instead of wasting energy and latency; memory-bound codes keep it on.",
		Table:   t,
	}, nil
}

// AblationMemoryLatency extends the paper's 0-cycle memory model with
// real DRAM latencies: the absolute time grows, the relative latency
// benefit of skipping on-chip lookups shrinks, and the energy savings
// are untouched — which is exactly why the paper frames ReDHiP as an
// energy mechanism first.
func (r *Runner) AblationMemoryLatency() (*Figure, error) {
	var rows []variant
	for _, lat := range []uint32{0, 100, 200, 400} {
		label := fmt.Sprintf("%d", lat)
		if lat == 0 {
			label = "0 (paper)"
		}
		rows = append(rows, sameSetting(label, func(c *sim.Config) { c.MemoryLatencyCycles = lat }))
	}
	return r.ablationFigure(figure{
		id:      "Ablation: memory-latency",
		caption: "With real DRAM latency the latency benefit dilutes (off-chip time dominates) while the dynamic-energy savings persist unchanged.",
		title:   "Memory-latency ablation (" + averagedOver + "; each vs base at the same latency)",
		head:    "memory latency (cycles)",
		rows:    rows,
		metrics: []metric{
			{name: "ReDHiP speedup", value: speedup, format: signedPct},
			{name: "ReDHiP dynamic saving", value: energySaving, format: pct},
		},
	})
}
