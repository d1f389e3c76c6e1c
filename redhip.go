// Package redhip is a library reproduction of "ReDHiP: Recalibrating
// Deep Hierarchy Prediction for Energy Efficiency" (Li, Franklin,
// Bianchini, Chong — IPDPS 2014).
//
// ReDHiP predicts last-level-cache misses with a tiny, direct-mapped,
// 1-bit prediction table indexed by the low bits of the block address
// (the "bits-hash"), recalibrated periodically from the LLC tag array.
// An L1 miss whose block is predicted absent from the (inclusive) LLC
// skips every lower cache level and goes straight to memory, saving
// both the serial lookup latency and — dominantly — the large dynamic
// energy of L3/L4 tag+data probes.
//
// The package exposes three layers:
//
//   - The prediction structures themselves (NewPredictionTable,
//     NewCBF, ...) for embedding in other simulators.
//   - A trace-driven 8-core, 4-level cache hierarchy simulator
//     (Run, PaperConfig, ScaledConfig) with the five schemes the paper
//     evaluates (Base, Phased, CBF, ReDHiP, Oracle), three inclusion
//     policies, and a stride prefetcher.
//   - The experiment harness (NewExperiments) that regenerates every
//     table and figure of the paper's evaluation.
//
// A minimal session:
//
//	cfg := redhip.ScaledConfig()                  // Table I geometry / 16
//	res, err := redhip.RunWorkload(cfg, "mcf", 1) // 8 copies of mcf
//	base, err := redhip.RunWorkload(cfg.WithScheme(redhip.Base), "mcf", 1)
//	fmt.Printf("speedup %.1f%%\n", 100*res.Speedup(base))
package redhip

import (
	"redhip/internal/core"
	"redhip/internal/experiment"
	"redhip/internal/memaddr"
	"redhip/internal/predictor"
	"redhip/internal/prefetch"
	"redhip/internal/sim"
	"redhip/internal/stats"
	"redhip/internal/trace"
	"redhip/internal/workload"
)

// Addr is a 64-bit physical byte address; Addr.Block() strips the
// 6-bit block offset.
type Addr = memaddr.Addr

// BlockSize is the cache block size (64 bytes) used throughout.
const BlockSize = memaddr.BlockSize

// --- simulator -----------------------------------------------------------------

// Config describes one simulation: cache geometry, energy constants,
// scheme, inclusion policy, prediction-table and prefetcher settings.
type Config = sim.Config

// Result carries everything a run produces: cycles, per-level cache
// statistics, the energy breakdown, predictor accuracy and prefetcher
// counters, plus the derived paper metrics (Speedup,
// DynamicEnergyRatio, TotalEnergySaving, PerformanceEnergyMetric).
type Result = sim.Result

// Scheme selects the evaluated mechanism.
type Scheme = sim.Scheme

// The five schemes of the paper's evaluation (Figures 6-8).
const (
	// Base: no prediction, parallel tag+data access at every level.
	Base = sim.Base
	// Phased: serialised tag-then-data access at L3/L4.
	Phased = sim.Phased
	// CBF: counting-Bloom-filter prediction at equal area.
	CBF = sim.CBF
	// ReDHiP: the paper's recalibrated 1-bit prediction table.
	ReDHiP = sim.ReDHiP
	// Oracle: perfect, free LLC-presence prediction (upper bound).
	Oracle = sim.Oracle
)

// InclusionPolicy selects how the hierarchy's levels relate.
type InclusionPolicy = sim.InclusionPolicy

// The three policies of Figure 13.
const (
	Inclusive = sim.Inclusive
	Hybrid    = sim.Hybrid
	Exclusive = sim.Exclusive
)

// Schemes lists all five schemes in presentation order.
func Schemes() []Scheme { return sim.Schemes() }

// PaperConfig returns the exact Table I configuration: 8 cores at
// 3.7 GHz, 32K/256K/4M private caches, 64M shared LLC, 512K prediction
// table, recalibration every 1M L1 misses.
func PaperConfig() Config { return sim.Paper() }

// ScaledConfig returns the laptop-scale configuration: every capacity
// divided by 16 with associativities, overhead ratios and p-k preserved.
// Use workload scale 16 with it (RunWorkload does so automatically).
func ScaledConfig() Config { return sim.Scaled() }

// SmokeConfig returns a tiny configuration for tests and demos.
func SmokeConfig() Config { return sim.Smoke() }

// Run simulates cfg over explicit per-core sources (one per core).
func Run(cfg Config, sources []WorkloadSource) (*Result, error) {
	return sim.Run(cfg, sources)
}

// RunWorkload simulates cfg over a named workload from the paper's
// suite, instantiating one source per core at cfg.WorkloadScale.
func RunWorkload(cfg Config, name string, seed uint64) (*Result, error) {
	srcs, err := workload.Sources(name, cfg.Cores, cfg.WorkloadScale, seed)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg, srcs)
}

// --- workloads ------------------------------------------------------------------

// WorkloadSource produces an endless memory-reference stream for one
// core.
type WorkloadSource = workload.Source

// WorkloadProfile describes a synthetic workload as a weighted mixture
// of access-pattern components.
type WorkloadProfile = workload.Profile

// ComponentSpec is one component of a WorkloadProfile.
type ComponentSpec = workload.ComponentSpec

// Access-pattern component kinds for custom workloads.
const (
	KindHot     = workload.KindHot
	KindStream  = workload.KindStream
	KindStrided = workload.KindStrided
	KindChase   = workload.KindChase
	KindZipf    = workload.KindZipf
)

// Workloads lists the paper's eleven workload names in presentation
// order (eight SPEC 2006 benchmarks, mix, pmf, blas).
func Workloads() []string { return workload.BenchmarkNames() }

// WorkloadSources instantiates the per-core sources for a named
// workload at the given scale divisor.
func WorkloadSources(name string, cores int, scale, seed uint64) ([]WorkloadSource, error) {
	return workload.Sources(name, cores, scale, seed)
}

// NewWorkload builds a source from a custom profile. scale divides all
// region sizes and must be a power of two.
func NewWorkload(p *WorkloadProfile, scale, seed uint64) (WorkloadSource, error) {
	return workload.New(p, scale, seed)
}

// CaptureTrace materialises n references from a source (for writing
// trace files or inspection).
func CaptureTrace(src WorkloadSource, n int) *Trace { return workload.Capture(src, n) }

// ReplayTrace wraps an in-memory trace as a WorkloadSource.
func ReplayTrace(tr *Trace) WorkloadSource { return workload.FromTrace(tr) }

// Trace is an in-memory memory-reference trace; trace files use the
// compact binary encoding of WriteTrace/ReadTrace.
type Trace = trace.Trace

// TraceRecord is one memory reference.
type TraceRecord = trace.Record

// WriteTrace and ReadTrace are re-exported in tracefile.go.

// --- prediction structures ---------------------------------------------------------

// PredictionTable is the paper's contribution: the direct-mapped 1-bit
// recalibrated LLC-presence table (Section III).
type PredictionTable = core.Table

// RecalCost is the stall-cycle and energy cost of one recalibration.
type RecalCost = core.RecalCost

// NewPredictionTable builds a table of sizeBytes (power of two) with
// the given recalibration banking factor.
func NewPredictionTable(sizeBytes uint64, banks int) (*PredictionTable, error) {
	return core.NewTable(sizeBytes, banks)
}

// NewPredictionTableForCache builds a table at the paper's 0.78%
// storage-overhead ratio of the covered cache.
func NewPredictionTableForCache(cacheSizeBytes uint64, banks int) (*PredictionTable, error) {
	return core.NewForCache(cacheSizeBytes, banks)
}

// CountingBloomFilter is the equal-area baseline predictor.
type CountingBloomFilter = predictor.CBF

// NewCBF builds a counting Bloom filter within sizeBytes using
// counterBits-wide saturating counters.
func NewCBF(sizeBytes uint64, counterBits uint) (*CountingBloomFilter, error) {
	return predictor.NewCBF(sizeBytes, counterBits)
}

// PrefetchConfig parameterises the stride prefetcher of Section V-C.
type PrefetchConfig = prefetch.Config

// DefaultPrefetchConfig returns the evaluation's prefetcher settings.
func DefaultPrefetchConfig() PrefetchConfig { return prefetch.DefaultConfig() }

// --- experiments ------------------------------------------------------------------

// Experiments runs and memoises the paper's evaluation.
type Experiments = experiment.Runner

// ExperimentOptions configure an Experiments runner.
type ExperimentOptions = experiment.Options

// PaperFigure is one regenerated table or figure.
type PaperFigure = experiment.Figure

// ResultTable is a rendered result table (text/CSV/markdown).
type ResultTable = stats.Table

// NewExperiments builds an experiment runner; zero options mean the
// scaled geometry over all eleven workloads. It fails on invalid
// options (e.g. a negative Parallelism).
func NewExperiments(opts ExperimentOptions) (*Experiments, error) {
	return experiment.NewRunner(opts)
}
