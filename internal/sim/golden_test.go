package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// goldenFingerprint renders a Result to a stable hash. JSON encoding is
// canonical for our purposes: field order is struct order, floats use
// the shortest round-trip representation, so two Results hash equal iff
// every counter, cycle count and energy figure is bit-identical.
func goldenFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenConfig is the smoke geometry for one golden axis combination,
// and the workload it runs. Non-prefetch cases use mcf; prefetch cases
// use milc, whose strided components actually drive the stride
// prefetcher (mcf issues zero prefetches at smoke scale). A nonzero
// recal overrides the recalibration period (1 selects the mirror); a
// nonzero cores overrides Smoke()'s four.
func goldenConfig(scheme Scheme, incl InclusionPolicy, prefetch bool, recal uint64, cores int) (Config, string) {
	cfg := Smoke()
	cfg.Scheme = scheme
	cfg.Inclusion = incl
	cfg.EnablePrefetch = prefetch
	if recal != 0 {
		cfg.RecalPeriod = recal
	}
	if cores != 0 {
		cfg.Cores = cores
	}
	wl := "mcf"
	if prefetch {
		wl = "milc"
	}
	return cfg, wl
}

// goldenAxes names an (inclusion, prefetch, recal, cores) combination;
// the recal and cores suffixes appear only on the cases that override
// them, so the original sixteen keep their names.
func goldenAxes(incl InclusionPolicy, prefetch bool, recal uint64, cores int) string {
	name := fmt.Sprintf("%s/prefetch=%v", incl, prefetch)
	if recal != 0 {
		name += fmt.Sprintf("/recal=%d", recal)
	}
	if cores != 0 {
		name += fmt.Sprintf("/cores=%d", cores)
	}
	return name
}

// name is the case's subtest name.
func (tc goldenCase) name() string {
	return fmt.Sprintf("%s/%s", tc.scheme, goldenAxes(tc.incl, tc.prefetch, tc.recal, tc.cores))
}

// goldenRun executes one smoke-geometry run of a golden case over live
// generated sources.
func goldenRun(t *testing.T, tc goldenCase) *Result {
	t.Helper()
	cfg, wl := goldenConfig(tc.scheme, tc.incl, tc.prefetch, tc.recal, tc.cores)
	srcs, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenCases enumerates every valid scheme x inclusion combination
// (CBF is rejected under Exclusive), then prefetch-enabled runs that
// cover each predictor's prefetch consult: every predicting scheme
// under Inclusive and Hybrid, Base and ReDHiP under Exclusive, and the
// per-miss mirror (recal 1); then wider machines that run the core
// scheduler past four cores.
type goldenCase struct {
	scheme   Scheme
	incl     InclusionPolicy
	prefetch bool
	recal    uint64 // RecalPeriod override; 0 keeps Smoke()'s
	cores    int    // Cores override; 0 keeps Smoke()'s 4
	want     string
}

// The recorded fingerprints below were captured at the seed revision
// (before the hot-path overhaul) and pin the documented determinism
// contract of Run: the same config and sources must produce
// bit-identical results across runs AND across refactors of the
// simulation core. Regenerate with -run TestGoldenFingerprints -capture
// only when an intentional semantic change is made, and say so in the
// commit message.
var captureGolden = flag.Bool("capture", false, "print golden fingerprints instead of asserting")

var goldenCases = []goldenCase{
	{Base, Inclusive, false, 0, 0, "f7fdb92bd63f4919"},
	{Base, Hybrid, false, 0, 0, "58a601afbc20116f"},
	{Base, Exclusive, false, 0, 0, "06be6574033cf6ce"},
	{Phased, Inclusive, false, 0, 0, "d9ee6451d3cda0ca"},
	{Phased, Hybrid, false, 0, 0, "143ef9f0a646a4d4"},
	{Phased, Exclusive, false, 0, 0, "08bea1e329ca46f9"},
	{CBF, Inclusive, false, 0, 0, "918a4164e5113dce"},
	{CBF, Hybrid, false, 0, 0, "b79a63f640b075a9"},
	{ReDHiP, Inclusive, false, 0, 0, "d6c150e5572db98c"},
	{ReDHiP, Hybrid, false, 0, 0, "32c7528a50213c54"},
	{ReDHiP, Exclusive, false, 0, 0, "66f955623bc23c7b"},
	{Oracle, Inclusive, false, 0, 0, "9425832655b42508"},
	{Oracle, Hybrid, false, 0, 0, "14b68a42361de2c1"},
	{Oracle, Exclusive, false, 0, 0, "adef0ec4a2be439e"},
	{ReDHiP, Inclusive, true, 0, 0, "639076d8eaf051c2"},
	{Base, Exclusive, true, 0, 0, "9953b3574608eb78"},
	{ReDHiP, Exclusive, true, 0, 0, "bff0c4ba6d167297"},
	{CBF, Inclusive, true, 0, 0, "af07b704fac78170"},
	{Oracle, Inclusive, true, 0, 0, "e2fec7a4ee2c3225"},
	{CBF, Hybrid, true, 0, 0, "a574c800595efa67"},
	{ReDHiP, Hybrid, true, 0, 0, "5d4ffed9e254f684"},
	{Oracle, Hybrid, true, 0, 0, "4696fcfa73f4968f"},
	// At smoke scale the L4 never evicts and no periodic recalibration
	// fires, so the mirror reproduces the periodic table's results.
	{ReDHiP, Inclusive, true, 1, 0, "639076d8eaf051c2"},
	{ReDHiP, Hybrid, true, 1, 0, "5d4ffed9e254f684"},
	// The paper's eight cores and a count that is not a power of two,
	// both wider than the four-core smoke machine. The ReDHiP cases
	// recalibrate every 2000 L1 misses, so the uniform recalibration
	// stall lands many times inside each window.
	{Base, Inclusive, false, 0, 8, "2900ea5a1f99ffff"},
	{Base, Hybrid, false, 0, 8, "152e61cc071bb75f"},
	{ReDHiP, Inclusive, false, 2000, 8, "6468d973a9271939"},
	{ReDHiP, Hybrid, false, 2000, 8, "2333c07affcb67c6"},
	{Base, Inclusive, false, 0, 6, "2fbb67fb2bd012b0"},
	{Base, Hybrid, false, 0, 6, "2612bf5b510d1625"},
	{ReDHiP, Inclusive, false, 2000, 6, "afd113b22c9076f8"},
	{ReDHiP, Hybrid, false, 2000, 6, "856a281ba52d9632"},
}

// goldenGroup is one (inclusion, prefetch, recal, cores) slice of the
// golden cases: the schemes that can share a single RunMulti pass
// (scheme is the only config axis RunMulti varies).
type goldenGroup struct {
	incl     InclusionPolicy
	prefetch bool
	recal    uint64
	cores    int
	schemes  []Scheme
	want     []string
}

// goldenGroups partitions goldenCases by (inclusion, prefetch, recal, cores),
// preserving case order within each group.
func goldenGroups() []goldenGroup {
	var groups []goldenGroup
	for _, tc := range goldenCases {
		found := false
		for i := range groups {
			if groups[i].incl == tc.incl && groups[i].prefetch == tc.prefetch && groups[i].recal == tc.recal && groups[i].cores == tc.cores {
				groups[i].schemes = append(groups[i].schemes, tc.scheme)
				groups[i].want = append(groups[i].want, tc.want)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, goldenGroup{
				incl: tc.incl, prefetch: tc.prefetch, recal: tc.recal, cores: tc.cores,
				schemes: []Scheme{tc.scheme}, want: []string{tc.want},
			})
		}
	}
	return groups
}

// TestGoldenFingerprintsMulti extends the golden fingerprints
// to the single-pass multi-scheme engine: every golden case, grouped
// into RunMulti passes, must reproduce its recorded fingerprint exactly
// — at parallelism 1, 2 and NumCPU, over both live generators
// (materialised once per multi-scheme pass) and trace-store replays
// (forked zero-copy cursors). Bit-identity across parallelism is the
// deterministic-parallelism contract: worker count may change wall
// time, never results.
func TestGoldenFingerprintsMulti(t *testing.T) {
	if *captureGolden {
		t.Skip("-capture regenerates fingerprints from live generation")
	}
	store := tracestore.New(0)
	for _, par := range []int{1, 2, runtime.NumCPU()} {
		for _, mode := range []string{"live", "stable"} {
			for _, g := range goldenGroups() {
				name := fmt.Sprintf("par=%d/%s/%s", par, mode, goldenAxes(g.incl, g.prefetch, g.recal, g.cores))
				t.Run(name, func(t *testing.T) {
					cfg, wl := goldenConfig(g.schemes[0], g.incl, g.prefetch, g.recal, g.cores)
					var srcs []workload.Source
					if mode == "live" {
						var err error
						srcs, err = workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 1)
						if err != nil {
							t.Fatal(err)
						}
					} else {
						mat, err := store.Get(tracestore.Key{
							Workload:    wl,
							Cores:       cfg.Cores,
							Scale:       cfg.WorkloadScale,
							Seed:        1,
							RefsPerCore: cfg.WarmupRefsPerCore + cfg.RefsPerCore,
						})
						if err != nil {
							t.Fatal(err)
						}
						srcs = mat.Sources()
					}
					results, err := RunMultiOpt(cfg, g.schemes, srcs, MultiOptions{Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					for i, sc := range g.schemes {
						if got := goldenFingerprint(t, results[i]); got != g.want[i] {
							t.Errorf("%s: RunMulti fingerprint %s, want %s — single-pass engine diverged from sequential Run", sc, got, g.want[i])
						}
					}
				})
			}
		}
	}
}

func TestGoldenFingerprints(t *testing.T) {
	for _, tc := range goldenCases {
		name := tc.name()
		t.Run(name, func(t *testing.T) {
			res := goldenRun(t, tc)
			got := goldenFingerprint(t, res)
			if *captureGolden {
				t.Logf("golden: {%s, %s, %v, %d, %d, \"%s\"},", tc.scheme, tc.incl, tc.prefetch, tc.recal, tc.cores, got)
				return
			}
			if got != tc.want {
				t.Errorf("fingerprint %s, want %s — sim.Run output changed for %s", got, tc.want, name)
			}
			// Run-to-run determinism: a second run from fresh sources
			// must reproduce the same fingerprint.
			again := goldenFingerprint(t, goldenRun(t, tc))
			if again != got {
				t.Errorf("second run fingerprint %s != first %s", again, got)
			}
		})
	}
}

// goldenMix is the mix fingerprint: the one workload whose cores run
// different benchmarks at different CPIs, so it pins that every core
// keeps its own source metadata. Recorded from live generation like
// goldenCases; the store replay must reproduce it.
const goldenMix = "6cc19ab51d93c55d"

func TestGoldenFingerprintMix(t *testing.T) {
	cfg := Smoke()
	cfg.Scheme = ReDHiP
	live, err := workload.Sources("mix", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, live)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenFingerprint(t, res)
	if *captureGolden {
		t.Logf("golden mix: %q", got)
		return
	}
	if got != goldenMix {
		t.Errorf("live fingerprint %s, want %s — sim.Run output changed for mix", got, goldenMix)
	}
	mat, err := tracestore.New(0).Get(tracestore.Key{
		Workload:    "mix",
		Cores:       cfg.Cores,
		Scale:       cfg.WorkloadScale,
		Seed:        1,
		RefsPerCore: cfg.WarmupRefsPerCore + cfg.RefsPerCore,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(cfg, mat.Sources())
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenFingerprint(t, res); got != goldenMix {
		t.Errorf("replayed fingerprint %s, want %s — materialised replay diverged from live generation", got, goldenMix)
	}
}
