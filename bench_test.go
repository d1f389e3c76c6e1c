// Benchmarks: one per table/figure of the paper's evaluation (run via
// `go test -bench=. -benchmem`), each regenerating its artefact at the
// smoke geometry and reporting the headline averages as custom metrics,
// plus microbenchmarks of the core structures. For publication-quality
// numbers use `redhip-bench -geometry scaled` (or paper).
package redhip_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"redhip"
)

// benchRunner builds an experiment runner small enough for benchmarks.
func benchRunner(b *testing.B) *redhip.Experiments {
	b.Helper()
	cfg := redhip.SmokeConfig()
	cfg.RefsPerCore = 20_000
	ex, err := redhip.NewExperiments(redhip.ExperimentOptions{Base: cfg, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return ex
}

// reportAvg parses a figure's "average" column for the named row label
// and reports it as a benchmark metric. A missing row or an unparsable
// cell fails the benchmark: a silently absent metric would let a
// regression that breaks the table format go unnoticed.
func reportAvg(b *testing.B, f *redhip.PaperFigure, row, metric string) {
	b.Helper()
	for _, r := range f.Table.Rows {
		if r[0] != row {
			continue
		}
		cell := strings.TrimSuffix(strings.TrimPrefix(r[len(r)-1], "+"), "%")
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			b.Fatalf("row %q of %s: cannot parse average cell %q: %v", row, f.ID, r[len(r)-1], err)
		}
		b.ReportMetric(v, metric)
		return
	}
	b.Fatalf("row %q not found in %s", row, f.ID)
}

func BenchmarkTableI(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		if r.TableI().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1EnergyBreakdown(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		f, err := r.Fig1EnergyBreakdown()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, f, "L4", "L4_dyn_share_%")
	}
}

func BenchmarkFig6Speedup(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		f, err := r.Fig6Speedup()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, f, "redhip", "redhip_speedup_%")
		reportAvg(b, f, "oracle", "oracle_speedup_%")
		reportAvg(b, f, "phased", "phased_speedup_%")
		reportAvg(b, f, "cbf", "cbf_speedup_%")
	}
}

func BenchmarkFig7DynamicEnergy(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		f, err := r.Fig7DynamicEnergy()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, f, "redhip", "redhip_dyn_energy_%")
		reportAvg(b, f, "oracle", "oracle_dyn_energy_%")
	}
}

func BenchmarkFig8Metric(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig8Metric(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9HitRatesBase(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		f, err := r.Fig9HitRatesBase()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, f, "L1", "L1_hit_%")
	}
}

func BenchmarkFig10HitRatesReDHiP(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		f, err := r.Fig10HitRatesReDHiP()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, f, "L4", "L4_hit_%")
	}
}

func BenchmarkFig11TableSize(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig11TableSize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12RecalPeriod(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig12RecalPeriod(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Inclusion(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		f, err := r.Fig13Inclusion()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, f, "inclusive", "inclusive_saving_%")
		reportAvg(b, f, "exclusive", "exclusive_saving_%")
	}
}

func BenchmarkFig14PrefetchSpeedup(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		f, err := r.Fig14PrefetchSpeedup()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, f, "SP+ReDHiP", "combined_speedup_%")
	}
}

func BenchmarkFig15PrefetchEnergy(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		f, err := r.Fig15PrefetchEnergy()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, f, "SP+ReDHiP", "combined_dyn_energy_%")
	}
}

// --- microbenchmarks of the core structures -----------------------------------

func BenchmarkPredictionTableLookup(b *testing.B) {
	tb, err := redhip.NewPredictionTable(512<<10, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		tb.Set(redhip.Addr(i * 64).Block())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.PredictPresent(redhip.Addr(i * 64).Block())
	}
}

func BenchmarkPredictionTableSet(b *testing.B) {
	tb, err := redhip.NewPredictionTable(512<<10, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Set(redhip.Addr(i * 64).Block())
	}
}

func BenchmarkCBFLookup(b *testing.B) {
	cbf, err := redhip.NewCBF(512<<10, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		cbf.OnFill(redhip.Addr(i * 64).Block())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cbf.PredictPresent(redhip.Addr(i * 64).Block())
	}
}

// rewinder is the replay-source reset hook (workload.TraceSource).
type rewinder interface{ Rewind() }

// engineLoopBench measures sim.Run's steady-state reference loop by
// replaying pre-captured in-memory traces, so workload generation cost
// is excluded and the metric isolates the simulation core. It is a
// quick local check; `bash benchmark/run.sh` is the performance
// harness that tracks throughput across changes. cores overrides the
// smoke machine's four.
func engineLoopBench(b *testing.B, scheme redhip.Scheme, workloadName string, cores int) {
	b.Helper()
	cfg := redhip.SmokeConfig()
	cfg.RefsPerCore = 50_000
	cfg.Scheme = scheme
	cfg.Cores = cores
	gen, err := redhip.WorkloadSources(workloadName, cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]redhip.WorkloadSource, cfg.Cores)
	for c := range srcs {
		srcs[c] = redhip.ReplayTrace(redhip.CaptureTrace(gen[c], int(cfg.RefsPerCore)))
	}
	var refs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			s.(rewinder).Rewind()
		}
		res, err := redhip.Run(cfg, srcs)
		if err != nil {
			b.Fatal(err)
		}
		refs += res.Refs
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(refs)/secs, "refs/s")
	}
}

func BenchmarkEngineLoop(b *testing.B) {
	b.Run("base", func(b *testing.B) { engineLoopBench(b, redhip.Base, "mcf", 4) })
	b.Run("redhip", func(b *testing.B) { engineLoopBench(b, redhip.ReDHiP, "mcf", 4) })
	b.Run("cbf", func(b *testing.B) { engineLoopBench(b, redhip.CBF, "mcf", 4) })
	b.Run("oracle", func(b *testing.B) { engineLoopBench(b, redhip.Oracle, "mcf", 4) })
	// The paper's eight cores: the scheduler's path is one level deeper.
	b.Run("cores=8", func(b *testing.B) { engineLoopBench(b, redhip.ReDHiP, "mcf", 8) })
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := redhip.SmokeConfig()
	cfg.RefsPerCore = 25_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := redhip.RunWorkload(cfg, "mcf", 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Refs)) // bytes stand in for references
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	srcs, err := redhip.WorkloadSources("mcf", 1, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	var rec redhip.TraceRecord
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srcs[0].Next(&rec)
	}
}

func BenchmarkTraceEncodeDecode(b *testing.B) {
	srcs, err := redhip.WorkloadSources("soplex", 1, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr := redhip.CaptureTrace(srcs[0], 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := redhip.WriteTrace(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := redhip.ReadTrace(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks --------------------------------------------------------

func ablationBenchRunner(b *testing.B) *redhip.Experiments {
	b.Helper()
	cfg := redhip.SmokeConfig()
	cfg.RefsPerCore = 12_000
	cfg.RecalPeriod = 1_500 // short runs must still recalibrate
	ex, err := redhip.NewExperiments(redhip.ExperimentOptions{Base: cfg, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return ex
}

func BenchmarkAblationHash(b *testing.B) {
	r := ablationBenchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationHash(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCBFCounters(b *testing.B) {
	r := ablationBenchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationCBFCounters(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBanks(b *testing.B) {
	r := ablationBenchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationBanks(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationReplacement(b *testing.B) {
	r := ablationBenchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationReplacement(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFills(b *testing.B) {
	r := ablationBenchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationFills(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAdaptive(b *testing.B) {
	r := ablationBenchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationAdaptive(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMemoryLatency(b *testing.B) {
	r := ablationBenchRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationMemoryLatency(); err != nil {
			b.Fatal(err)
		}
	}
}
