package sim

import (
	"testing"

	"redhip/internal/tracestore"
)

// TestGoldenFingerprintsReplayed re-runs every golden case with its
// reference stream served by the materialise-once trace store instead of
// live generators. The fingerprints must match the recorded ones exactly:
// replay is required to be bit-identical to generation, not merely
// statistically equivalent, or the sweep cache would silently change
// results. The store must also materialise exactly once per distinct
// stream — one per (workload, core count): mcf for the non-prefetch
// runs, milc for the prefetch runs, at each machine width.
func TestGoldenFingerprintsReplayed(t *testing.T) {
	if *captureGolden {
		t.Skip("-capture regenerates fingerprints from live generation")
	}
	store := tracestore.New(0)
	streams := map[tracestore.Key]bool{}
	for _, tc := range goldenCases {
		name := tc.name()
		cfg, wl := goldenConfig(tc.scheme, tc.incl, tc.prefetch, tc.recal, tc.cores)
		key := tracestore.Key{
			Workload:    wl,
			Cores:       cfg.Cores,
			Scale:       cfg.WorkloadScale,
			Seed:        1,
			RefsPerCore: cfg.WarmupRefsPerCore + cfg.RefsPerCore,
		}
		streams[key] = true
		mat, err := store.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, mat.Sources())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := goldenFingerprint(t, res); got != tc.want {
			t.Errorf("%s: replayed fingerprint %s, want %s — materialised replay diverged from live generation", name, got, tc.want)
		}
	}
	st := store.Stats()
	wantMisses := uint64(len(streams))
	wantHits := uint64(len(goldenCases)) - wantMisses
	if st.Misses != wantMisses || st.Hits != wantHits {
		t.Errorf("store stats %d misses / %d hits, want %d / %d — each distinct stream must materialise exactly once",
			st.Misses, st.Hits, wantMisses, wantHits)
	}
}
