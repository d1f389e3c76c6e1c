// Package serve is the repo's first serving-side subsystem: a
// stdlib-only HTTP service that accepts simulation sweep jobs as JSON,
// runs them on a bounded worker pool backed by experiment.Runner and a
// process-wide tracestore (so identical streams materialise once per
// process), and exposes status polling, Server-Sent-Events progress
// streaming and a Prometheus-text /metrics endpoint. A job is a list of
// cells, each a normalised Spec run one after another: a POST /v1/jobs
// spec is one cell, and a POST /v1/sweeps grid is one cell per grid
// child (sweeps.go).
//
// Production shape (DESIGN.md §11):
//   - Admission control: a bounded FIFO queue; a full queue rejects
//     with 429 and a Retry-After estimate instead of buffering without
//     bound.
//   - Deduplication: jobs are keyed by a canonical hash of their
//     normalised spec or grid. A submission whose key matches a queued,
//     running or cached-complete job attaches to it (single-flight
//     onto an LRU-bounded job store) instead of re-running.
//   - Cancellation: DELETE frees a queued job's slot immediately and
//     cancels a running job's context (taking effect between runs).
//   - Graceful shutdown: new submissions are rejected, queued jobs are
//     cancelled, in-flight jobs drain to completion.
//
// Unlike the simulation packages, serve legitimately reads the wall
// clock and spawns goroutines; redhip-lint's determinism analyzer
// excludes it by name (analysis.ServingPackages).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"redhip/internal/sim"
	"redhip/internal/sweep"
	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// Spec is the request body of POST /v1/jobs: a sim.Config-shaped sweep
// description. Zero values mean "use the geometry preset's default".
type Spec struct {
	// Workloads to sweep; required, each must be a known benchmark name.
	Workloads []string `json:"workloads"`
	// Schemes to evaluate per workload; default all five.
	Schemes []string `json:"schemes,omitempty"`
	// Geometry preset the config derives from: "paper", "scaled"
	// (default) or "smoke".
	Geometry string `json:"geometry,omitempty"`
	// Inclusion policy: "inclusive" (default), "hybrid" or "exclusive".
	Inclusion string `json:"inclusion,omitempty"`
	// Seed feeds the workload generators (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// RefsPerCore overrides the preset's simulation length.
	RefsPerCore uint64 `json:"refs_per_core,omitempty"`
	// WarmupRefsPerCore runs untimed warm-up references per core.
	WarmupRefsPerCore uint64 `json:"warmup_refs_per_core,omitempty"`
	// Cores overrides the preset's core count.
	Cores int `json:"cores,omitempty"`
	// Prefetch enables the stride prefetcher.
	Prefetch bool `json:"prefetch,omitempty"`
	// TimeoutSeconds bounds the job's execution (not queue wait).
	// Excluded from the dedup key: two specs that differ only in
	// timeout would produce bit-identical results.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// normalize fills defaults, validates every field and returns the spec
// in canonical form (explicit schemes, geometry and inclusion; duplicate
// workloads/schemes removed, order preserved). The canonical form is
// what the dedup key hashes, so "schemes omitted" and "all five schemes
// spelled out" collide — that sharing is the point.
func (s Spec) normalize() (Spec, error) {
	if len(s.Workloads) == 0 {
		return Spec{}, fmt.Errorf("serve: spec requires at least one workload")
	}
	known := make(map[string]bool)
	for _, name := range workload.BenchmarkNames() {
		known[name] = true
	}
	s.Workloads = sweep.Dedupe(s.Workloads)
	for _, w := range s.Workloads {
		if !known[w] {
			return Spec{}, fmt.Errorf("serve: unknown workload %q", w)
		}
	}
	if len(s.Schemes) == 0 {
		for _, sc := range sim.Schemes() {
			s.Schemes = append(s.Schemes, sc.String())
		}
	}
	s.Schemes = sweep.Dedupe(s.Schemes)
	for _, name := range s.Schemes {
		if _, err := sim.ParseScheme(name); err != nil {
			return Spec{}, err
		}
	}
	if s.Geometry == "" {
		s.Geometry = "scaled"
	}
	if _, err := sim.Preset(s.Geometry); err != nil {
		return Spec{}, err
	}
	if s.Inclusion == "" {
		s.Inclusion = "inclusive"
	}
	if _, err := sim.ParseInclusion(s.Inclusion); err != nil {
		return Spec{}, err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Cores < 0 {
		return Spec{}, fmt.Errorf("serve: cores must be >= 0, got %d", s.Cores)
	}
	if s.TimeoutSeconds < 0 {
		return Spec{}, fmt.Errorf("serve: timeout_seconds must be >= 0, got %g", s.TimeoutSeconds)
	}
	// Every (scheme, inclusion, overrides) combination must be a valid
	// sim.Config — rejecting impossible sweeps (CBF under a fully
	// exclusive hierarchy, say) at admission beats failing the job
	// after it waited through the queue.
	for _, name := range s.Schemes {
		cfg, err := s.configForScheme(name)
		if err != nil {
			return Spec{}, err
		}
		if err := cfg.Validate(); err != nil {
			return Spec{}, fmt.Errorf("serve: scheme %s: %w", name, err)
		}
	}
	return s, nil
}

// Normalized is the exported face of normalize for the cluster router:
// the router must canonicalise a spec the same way a replica will, so
// the key it hashes for ring placement equals the key the replica
// dedups on. It also forwards the *normalised* spec to replicas, which
// keeps the key stable across a re-home even if normalisation defaults
// ever change between submissions.
func (s Spec) Normalized() (Spec, error) { return s.normalize() }

// CanonicalKey is the exported face of key. The receiver must already
// be normalised (by Normalized); keying a raw spec would let "schemes
// omitted" and "all schemes spelled out" land on different replicas.
func (s Spec) CanonicalKey() string { return s.key() }

// configForScheme builds the full sim.Config one (workload-independent)
// run of this spec uses. The spec must be normalised.
func (s Spec) configForScheme(scheme string) (sim.Config, error) {
	cfg, err := sim.Preset(s.Geometry)
	if err != nil {
		return sim.Config{}, err
	}
	if cfg.Scheme, err = sim.ParseScheme(scheme); err != nil {
		return sim.Config{}, err
	}
	if cfg.Inclusion, err = sim.ParseInclusion(s.Inclusion); err != nil {
		return sim.Config{}, err
	}
	if s.RefsPerCore > 0 {
		cfg.RefsPerCore = s.RefsPerCore
	}
	if s.Cores > 0 {
		cfg.Cores = s.Cores
	}
	cfg.WarmupRefsPerCore = s.WarmupRefsPerCore
	cfg.EnablePrefetch = s.Prefetch
	return cfg, nil
}

// runs returns the job's total run count: |workloads| x |schemes|.
func (s Spec) runs() int { return len(s.Workloads) * len(s.Schemes) }

// estimateTraceBytes is the job's worst-case resident trace footprint:
// every workload's entry resident at once, each charged exactly what
// the trace store will charge for it (tracestore.Footprint: one copy
// of each distinct stream). Schemes share a workload's trace (the
// tracestore's whole point), so the scheme count does not multiply the
// estimate. The spec must be normalised; the byte-budget load shedder
// reserves this at admission.
func (s Spec) estimateTraceBytes() uint64 {
	cfg, err := sim.Preset(s.Geometry)
	if err != nil {
		return 0 // unreachable on a normalised spec
	}
	if s.RefsPerCore > 0 {
		cfg.RefsPerCore = s.RefsPerCore
	}
	if s.Cores > 0 {
		cfg.Cores = s.Cores
	}
	var total uint64
	for _, w := range s.Workloads {
		b, err := tracestore.Footprint(tracestore.Key{
			Workload:    w,
			Cores:       cfg.Cores,
			Scale:       cfg.WorkloadScale,
			Seed:        s.Seed,
			RefsPerCore: s.WarmupRefsPerCore + cfg.RefsPerCore,
		})
		if err != nil {
			return 0 // unreachable: normalize admits known workloads only
		}
		total += b
	}
	return total
}

// key returns the dedup key: a short hex SHA-256 of the canonical JSON
// encoding of the normalised spec, with the execution-only
// TimeoutSeconds zeroed so it does not split otherwise-identical jobs.
func (s Spec) key() string {
	s.TimeoutSeconds = 0
	return hashKey("", s)
}

// hashKey is a short hex SHA-256 of prefix followed by v's JSON
// encoding. A JSON object starts with "{", so a non-empty prefix keeps
// the key apart from every unprefixed key.
func hashKey(prefix string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Keys hash plain data; Marshal cannot fail. Keep the error path
		// total anyway.
		panic(fmt.Sprintf("serve: marshal key: %v", err))
	}
	sum := sha256.Sum256(append([]byte(prefix), b...))
	return hex.EncodeToString(sum[:8])
}
