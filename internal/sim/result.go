package sim

import (
	"fmt"
	"strings"

	"redhip/internal/cache"
	"redhip/internal/energy"
)

// PredStats summarises predictor behaviour against ground truth. The
// simulator cross-checks every prediction against the covered cache's
// actual contents, so false negatives (which would be a correctness
// bug) are detected immediately.
type PredStats struct {
	Lookups        uint64
	TruePositive   uint64 // predicted present, was present
	FalsePositive  uint64 // predicted present, was absent (wasted walk)
	TrueNegative   uint64 // predicted absent, was absent (skipped walk)
	FalseNegative  uint64 // must stay zero
	Recalibrations uint64
	RecalCycles    uint64
}

// Accuracy returns the fraction of correct predictions.
func (p *PredStats) Accuracy() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.TruePositive+p.TrueNegative) / float64(p.Lookups)
}

// PrefetchStats summarises prefetcher activity across cores.
type PrefetchStats struct {
	Issued uint64 // prefetch requests sent to the hierarchy
	Useful uint64 // prefetched blocks later hit by a demand access
}

// Result holds everything one simulation run produces.
type Result struct {
	// Workload and Scheme identify the run in reports.
	Workload string
	Scheme   Scheme
	// Inclusion is the hierarchy policy the run used.
	Inclusion InclusionPolicy

	// Refs is the total number of demand references simulated.
	Refs uint64
	// Cycles is the execution time: the slowest core's finish time.
	Cycles uint64
	// CoreCycles are the per-core finish times.
	CoreCycles []uint64

	// Levels aggregates per-level cache statistics (L1-L3 summed over
	// cores; L4 is the single shared cache).
	Levels [energy.NumLevels]cache.Stats

	// Dynamic is the dynamic-energy meter; LeakageNJ integrates static
	// energy over Cycles.
	Dynamic   energy.Meter
	LeakageNJ float64

	// L1Misses counts L1 misses (the recalibration clock).
	L1Misses uint64
	// Pred summarises predictor behaviour (zero-valued for Base/Phased).
	Pred PredStats
	// Prefetch summarises prefetcher behaviour when enabled.
	Prefetch PrefetchStats
	// MemoryFetches counts block fetches from main memory.
	MemoryFetches uint64
	// Adaptive summarises the adaptive-disable monitor when enabled.
	Adaptive AdaptiveStats

	// Perf reports host-side measurements of the run itself. It is
	// excluded from JSON so serialised results and golden fingerprints
	// cover only the deterministic simulation outputs.
	Perf PerfStats `json:"-"`
}

// PerfStats measures the simulator, not the simulated machine: how fast
// this run executed and how much it allocated. Wall time is per-run;
// the allocation counters are deltas of the process-global heap
// counters that runtime/metrics serves without stopping the world.
// Those are counted at span granularity (each P's allocations land when
// it refills a span), so a small run can read a span more or less than
// it allocated, and concurrent runs (the experiment runner's worker
// pool) pollute each other's numbers — treat them as an upper bound
// there.
type PerfStats struct {
	// WallNanos is the wall-clock duration of the run: entry to return
	// for a one-scheme call (sim.Run), this scheme's share of the pass
	// for a multi-scheme RunMulti.
	WallNanos int64
	// GenerateNanos is the slice of WallNanos this scheme's engine
	// spent in its own refills: generating blocks from live sources or
	// taking windows of a trace replay. Nothing is shared or split
	// across a pass's schemes. SimulateNanos is the hierarchy walk
	// itself. Restore + Generate + Simulate == Wall,
	// with a solo run's construction overhead folded into SimulateNanos.
	GenerateNanos int64
	SimulateNanos int64
	// RestoreNanos is the slice of WallNanos spent applying a warm-state
	// snapshot (zero for cold runs). See MultiOptions.Snapshots.
	RestoreNanos int64
	// RefsPerSec is Refs divided by wall time: the per-run form of the
	// throughput `bash benchmark/run.sh` reports per workload as
	// sim_mrefs_per_s.
	RefsPerSec float64
	// AllocBytes and Mallocs are heap-allocation deltas over the pass,
	// split evenly across its schemes: bytes allocated and objects
	// allocated, tiny objects included as runtime.MemStats counts them.
	AllocBytes uint64
	Mallocs    uint64
}

// AdaptiveStats counts the adaptive-disable monitor's decisions.
type AdaptiveStats struct {
	// Epochs is the number of completed monitoring windows.
	Epochs uint64
	// DisabledEpochs is how many of them ran with prediction off.
	DisabledEpochs uint64
}

// DynamicNJ returns the total dynamic energy.
func (r *Result) DynamicNJ() float64 { return r.Dynamic.DynamicNJ() }

// TotalNJ returns dynamic plus leakage energy.
func (r *Result) TotalNJ() float64 { return r.DynamicNJ() + r.LeakageNJ }

// HitRate returns the hit rate observed at a level.
func (r *Result) HitRate(l energy.Level) float64 {
	s := r.Levels[l]
	return s.HitRate()
}

// Speedup returns base.Cycles/r.Cycles - 1: the paper's Figure 6 metric
// (positive = faster than base).
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles)/float64(r.Cycles) - 1
}

// DynamicEnergyRatio returns r's dynamic energy normalised to base
// (Figure 7 plots this; lower is better).
func (r *Result) DynamicEnergyRatio(base *Result) float64 {
	b := base.DynamicNJ()
	if b == 0 {
		return 0
	}
	return r.DynamicNJ() / b
}

// TotalEnergySaving returns 1 - total/baseTotal: the overall (dynamic +
// static) energy saving the abstract's 22% headline refers to.
func (r *Result) TotalEnergySaving(base *Result) float64 {
	b := base.TotalNJ()
	if b == 0 {
		return 0
	}
	return 1 - r.TotalNJ()/b
}

// PerformanceEnergyMetric is Figure 8's metric: the product of the
// performance gain and the total energy saving, expressed as
// (1+speedup) * (1+saving) so "both better" compounds above 1.
func (r *Result) PerformanceEnergyMetric(base *Result) float64 {
	return (1 + r.Speedup(base)) * (1 + r.TotalEnergySaving(base))
}

// EDP returns the energy-delay product in nanojoule-cycles: total
// energy (dynamic + leakage) times execution time. Lower is better;
// it penalises schemes that trade too much of one axis for the other.
func (r *Result) EDP() float64 {
	return r.TotalNJ() * float64(r.Cycles)
}

// EDPRatio returns r's EDP normalised to base (lower is better).
func (r *Result) EDPRatio(base *Result) float64 {
	b := base.EDP()
	if b == 0 {
		return 0
	}
	return r.EDP() / b
}

// String renders a compact human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s: refs=%d cycles=%d", r.Workload, r.Scheme, r.Inclusion, r.Refs, r.Cycles)
	for l := energy.L1; l < energy.NumLevels; l++ {
		s := r.Levels[l]
		fmt.Fprintf(&b, " %s=%.1f%%", l, 100*s.HitRate())
	}
	fmt.Fprintf(&b, " dyn=%.3g nJ leak=%.3g nJ", r.DynamicNJ(), r.LeakageNJ)
	if r.Pred.Lookups > 0 {
		fmt.Fprintf(&b, " predAcc=%.1f%%", 100*r.Pred.Accuracy())
	}
	return b.String()
}
