// Package sim is the trace-driven, cycle-approximate simulator of the
// paper's 8-core, 4-level cache hierarchy (Section IV): private L1/L2/L3
// per core, a shared L4 LLC with the prediction table beside it, a
// deterministic min-time interleaving of the per-core streams, Table I
// timing and energy, and the five evaluated schemes (Base, Phased
// Cache, CBF, ReDHiP, Oracle) under three inclusion policies.
package sim

import (
	"fmt"
	"strings"

	"redhip/internal/cache"
	"redhip/internal/core"
	"redhip/internal/energy"
	"redhip/internal/prefetch"
)

// Scheme selects the mechanism under evaluation (Section IV).
type Scheme int

// The five configurations of Figures 6-8.
const (
	// Base has no prediction; tag and data arrays are accessed in
	// parallel at every level.
	Base Scheme = iota
	// Phased serialises tag and data accesses at L3 and L4.
	Phased
	// CBF consults a counting Bloom filter on every L1 miss.
	CBF
	// ReDHiP consults the recalibrated 1-bit prediction table.
	ReDHiP
	// Oracle consults a perfect, free LLC-presence predictor.
	Oracle
)

// Schemes lists all five in presentation order.
func Schemes() []Scheme { return []Scheme{Base, Phased, CBF, ReDHiP, Oracle} }

// String returns the scheme's report name.
func (s Scheme) String() string {
	switch s {
	case Base:
		return "base"
	case Phased:
		return "phased"
	case CBF:
		return "cbf"
	case ReDHiP:
		return "redhip"
	case Oracle:
		return "oracle"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// InclusionPolicy selects how the hierarchy's levels relate
// (Section III-C, Figure 13).
type InclusionPolicy int

// The three policies of Figure 13.
const (
	// Inclusive: every level contains all blocks of the levels above.
	Inclusive InclusionPolicy = iota
	// Hybrid: the private L1/L2/L3 are exclusive among themselves; the
	// shared L4 is inclusive of everything.
	Hybrid
	// Exclusive: all four levels hold disjoint blocks; lower levels act
	// as victim caches.
	Exclusive
)

// String returns the policy's report name.
func (p InclusionPolicy) String() string {
	switch p {
	case Inclusive:
		return "inclusive"
	case Hybrid:
		return "hybrid"
	case Exclusive:
		return "exclusive"
	}
	return fmt.Sprintf("InclusionPolicy(%d)", int(p))
}

// Config fully describes one simulation.
type Config struct {
	// Cores is the number of cores (the paper uses 8).
	Cores int
	// L1..L4 are the cache geometries; L1-L3 are instantiated per core,
	// L4 once.
	L1, L2, L3, L4 cache.Geometry
	// Energy holds the Table I constants.
	Energy energy.Params
	// Scheme selects the mechanism.
	Scheme Scheme
	// Inclusion selects the hierarchy policy.
	Inclusion InclusionPolicy
	// PTBytes is the ReDHiP prediction-table size (512 KB at paper
	// scale). In Exclusive mode this is the L4 table; L2/L3 tables are
	// derived at the same 0.78% overhead ratio of their caches.
	PTBytes uint64
	// PTBanks is the recalibration banking factor (4 in the paper).
	PTBanks int
	// RecalPeriod is the number of L1 misses (across all cores) between
	// recalibrations; 1 recalibrates after every miss, 0 never.
	RecalPeriod uint64
	// CBFCounterBits is the CBF counter width (4 fills the area budget
	// exactly with power-of-two entries).
	CBFCounterBits uint
	// EnablePrefetch turns on the per-core stride prefetcher (Fig 14/15).
	EnablePrefetch bool
	// Prefetch parameterises the prefetcher when enabled.
	Prefetch prefetch.Config
	// RefsPerCore bounds the simulation length.
	RefsPerCore uint64
	// WorkloadScale is the factor workload region sizes are divided by;
	// it must match the scale the Sources were built with.
	WorkloadScale uint64
	// IgnorePredictionOverhead zeroes the predictor's lookup delay,
	// lookup energy and recalibration cost — the paper's sensitivity
	// studies (Figures 11 and 12) do this to isolate table accuracy.
	IgnorePredictionOverhead bool
	// ChargeFills additionally charges a data-array write per block
	// insertion. The paper's accounting covers lookup (read) energy
	// only — its Oracle saves 71% of dynamic energy, which is only
	// reachable if the fill writes that no predictor can avoid are
	// excluded — so this defaults to false; enable it for ablations.
	ChargeFills bool
	// PTHash selects the prediction table's hash: the paper's bits-hash
	// (default, zero value) or xor-hash for the ablation of accuracy vs
	// recalibration cost (Section III-A/B).
	PTHash core.HashKind
	// Replacement selects the replacement policy of every cache level
	// (LRU by default; FIFO/Random for ablations).
	Replacement cache.ReplacementPolicy
	// AdaptiveDisable enables the mechanism Section IV sketches: "In
	// the case when the L1 cache miss rate is very low or the LLC is
	// rarely used, our prediction mechanism would be disabled to not
	// waste energy or add latency." The engine monitors epochs of
	// AdaptiveEpochRefs references and turns prediction off for epochs
	// whose L1 miss rate or useful-skip rate falls below fixed floors,
	// probing periodically to re-enable.
	AdaptiveDisable bool
	// AdaptiveEpochRefs is the adaptive monitoring window in global
	// references (default 16384 when zero).
	AdaptiveEpochRefs uint64
	// MemoryLatencyCycles is the latency of a demand fetch from main
	// memory. The paper treats memory as a 0-delay data store
	// (Section IV), which is the default; set it to model real DRAM
	// and watch the latency benefit dilute while the energy savings
	// persist.
	MemoryLatencyCycles uint32
	// WarmupRefsPerCore runs this many references per core before the
	// measurement window: caches, predictors and prefetchers keep
	// their trained state but every counter, clock and energy meter is
	// reset at the boundary. The paper's traces "skip warm-up phases"
	// the same way.
	WarmupRefsPerCore uint64
}

// Paper returns the exact Table I configuration: 32 KB/256 KB/4 MB
// private levels, 64 MB shared LLC, 512 KB prediction table,
// recalibration every 1 M L1 misses.
func Paper() Config {
	return Config{
		Cores:          8,
		L1:             cache.Geometry{Name: "L1", SizeBytes: 32 << 10, Ways: 4, Banks: 1},
		L2:             cache.Geometry{Name: "L2", SizeBytes: 256 << 10, Ways: 8, Banks: 1},
		L3:             cache.Geometry{Name: "L3", SizeBytes: 4 << 20, Ways: 16, Banks: 1},
		L4:             cache.Geometry{Name: "L4", SizeBytes: 64 << 20, Ways: 16, Banks: 4},
		Energy:         energy.Paper(),
		Scheme:         ReDHiP,
		Inclusion:      Inclusive,
		PTBytes:        512 << 10,
		PTBanks:        4,
		RecalPeriod:    1_000_000,
		CBFCounterBits: 4,
		Prefetch:       prefetch.DefaultConfig(),
		RefsPerCore:    500_000_000,
		WorkloadScale:  1,
	}
}

// Scaled returns the laptop-scale configuration: every cache and the
// prediction table divided by 16, preserving associativities, the
// PT/LLC overhead ratio (0.78%) and p-k = 6; working sets built with
// workload scale 16 warm this hierarchy within a few hundred thousand
// references per core. The recalibration period shrinks by the same
// factor so recalibrations per simulated reference match the paper.
func Scaled() Config {
	c := Paper()
	c.L1.SizeBytes /= 16
	c.L2.SizeBytes /= 16
	c.L3.SizeBytes /= 16
	c.L4.SizeBytes /= 16
	c.PTBytes /= 16
	c.RecalPeriod /= 16
	c.RefsPerCore = 400_000
	c.WorkloadScale = 16
	c.Energy.PTAccessNJ = energy.PTAccessNJFor(c.Energy.PTAccessNJ, c.PTBytes)
	return c
}

// Smoke returns a tiny configuration for unit tests: caches divided by
// 64 and short traces. Results are noisy but directionally correct.
func Smoke() Config {
	c := Paper()
	c.L1.SizeBytes /= 64
	c.L2.SizeBytes /= 64
	c.L3.SizeBytes /= 64
	c.L4.SizeBytes /= 64
	c.PTBytes /= 64
	c.RecalPeriod /= 64
	c.RefsPerCore = 30_000
	c.WorkloadScale = 64
	c.Cores = 4
	c.Energy.PTAccessNJ = energy.PTAccessNJFor(c.Energy.PTAccessNJ, c.PTBytes)
	return c
}

// Preset returns the named geometry preset: paper, scaled or smoke.
func Preset(name string) (Config, error) {
	switch name {
	case "paper":
		return Paper(), nil
	case "scaled":
		return Scaled(), nil
	case "smoke":
		return Smoke(), nil
	}
	return Config{}, fmt.Errorf("sim: unknown geometry %q (want paper, scaled or smoke)", name)
}

// ParseScheme returns the scheme with the given report name.
func ParseScheme(name string) (Scheme, error) {
	for _, sc := range Schemes() {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown scheme %q", name)
}

// ParseInclusion returns the inclusion policy with the given report
// name.
func ParseInclusion(name string) (InclusionPolicy, error) {
	for _, p := range []InclusionPolicy{Inclusive, Hybrid, Exclusive} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown inclusion policy %q", name)
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: cores must be positive, got %d", c.Cores)
	}
	for _, g := range []cache.Geometry{c.L1, c.L2, c.L3, c.L4} {
		if _, err := g.Validate(); err != nil {
			return err
		}
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if c.Scheme < Base || c.Scheme > Oracle {
		return fmt.Errorf("sim: unknown scheme %d", int(c.Scheme))
	}
	if c.Inclusion < Inclusive || c.Inclusion > Exclusive {
		return fmt.Errorf("sim: unknown inclusion policy %d", int(c.Inclusion))
	}
	if c.Scheme == CBF && c.Inclusion == Exclusive {
		return fmt.Errorf("sim: CBF covers only the LLC and is unsafe under a fully exclusive hierarchy")
	}
	if c.Scheme == ReDHiP {
		if c.PTBytes == 0 {
			return fmt.Errorf("sim: ReDHiP requires a prediction table size")
		}
		if c.PTBanks <= 0 {
			return fmt.Errorf("sim: ReDHiP requires positive PT banks")
		}
		if c.Inclusion == Exclusive && c.RecalPeriod == 1 {
			return fmt.Errorf("sim: per-miss recalibration is only modelled for the LLC predictor, not the exclusive per-level stack")
		}
		if c.PTHash != core.HashBits && c.PTHash != core.HashXor {
			return fmt.Errorf("sim: unknown prediction table hash %d", int(c.PTHash))
		}
		if c.PTHash == core.HashXor && c.RecalPeriod == 1 {
			return fmt.Errorf("sim: per-miss recalibration is only modelled for the bits-hash table")
		}
	}
	if c.Replacement < cache.LRU || c.Replacement > cache.Random {
		return fmt.Errorf("sim: unknown replacement policy %d", int(c.Replacement))
	}
	if c.Scheme == CBF && (c.CBFCounterBits < 2 || c.CBFCounterBits > 8) {
		return fmt.Errorf("sim: CBF counter bits %d outside [2,8]", c.CBFCounterBits)
	}
	if c.EnablePrefetch {
		if err := c.Prefetch.Validate(); err != nil {
			return err
		}
	}
	if c.RefsPerCore == 0 {
		return fmt.Errorf("sim: refs per core must be positive")
	}
	if c.WorkloadScale == 0 {
		return fmt.Errorf("sim: workload scale must be positive")
	}
	return nil
}

// WithScheme returns a copy of the config with the scheme replaced.
func (c Config) WithScheme(s Scheme) Config { c.Scheme = s; return c }

// WithInclusion returns a copy with the inclusion policy replaced.
func (c Config) WithInclusion(p InclusionPolicy) Config { c.Inclusion = p; return c }

// WithPrefetch returns a copy with the prefetcher enabled or disabled.
func (c Config) WithPrefetch(on bool) Config { c.EnablePrefetch = on; return c }

// MarshalJSON renders the scheme by name so JSON results are readable.
func (s Scheme) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a scheme name.
func (s *Scheme) UnmarshalJSON(b []byte) error {
	sc, err := ParseScheme(strings.Trim(string(b), `"`))
	if err == nil {
		*s = sc
	}
	return err
}

// MarshalJSON renders the policy by name.
func (p InclusionPolicy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON parses a policy name.
func (p *InclusionPolicy) UnmarshalJSON(b []byte) error {
	pol, err := ParseInclusion(strings.Trim(string(b), `"`))
	if err == nil {
		*p = pol
	}
	return err
}
