package sim

import (
	"errors"
	"sync"
	"testing"

	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// snapCfg is the golden smoke geometry with a warmup window: the
// snapshot layer's contract only exists at a warmup/measure boundary.
func snapCfg(scheme Scheme, incl InclusionPolicy, prefetch bool, recal uint64, cores int) (Config, string) {
	cfg, wl := goldenConfig(scheme, incl, prefetch, recal, cores)
	cfg.WarmupRefsPerCore = 10_000
	cfg.RefsPerCore = 20_000
	return cfg, wl
}

// replaySources returns fresh replay cursors over wl's materialised
// stream, sized for cfg's warmup plus measure windows. A restore seeks
// trace replays to the warmup boundary, so it needs replays.
func replaySources(t *testing.T, store *tracestore.Store, cfg Config, wl string) []workload.Source {
	t.Helper()
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
	return mat.Sources()
}

// captureSolo runs a one-slot pass with a SnapshotSink and returns its
// result and the warm-state blob the sink received (nil if it never
// fired).
func captureSolo(t *testing.T, cfg Config, srcs []workload.Source) (*Result, []byte) {
	t.Helper()
	var blob []byte
	res, err := RunMultiOpt(cfg, []Scheme{cfg.Scheme}, srcs, MultiOptions{
		Parallelism:  1,
		SnapshotSeed: 1,
		SnapshotSink: func(_ Scheme, b []byte) { blob = b },
	})
	if err != nil {
		t.Fatal(err)
	}
	return res[0], blob
}

// restoreSolo runs a one-slot pass restored from blob.
func restoreSolo(cfg Config, blob []byte, srcs []workload.Source, seed uint64) (*Result, error) {
	res, err := RunMultiOpt(cfg, []Scheme{cfg.Scheme}, srcs, MultiOptions{
		Parallelism:  1,
		Snapshots:    [][]byte{blob},
		SnapshotSeed: seed,
	})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// TestGoldenSnapshotBranch extends the golden determinism contract to
// the warm-state snapshot layer: for every golden scheme x inclusion
// case, a one-slot pass that captures its warm state and a one-slot
// pass restored from that blob must both reproduce the straight-through
// warmup+measure Run over live generated sources bit-for-bit.
func TestGoldenSnapshotBranch(t *testing.T) {
	store := tracestore.New(0)
	for _, tc := range goldenCases {
		t.Run(tc.name(), func(t *testing.T) {
			cfg, wl := snapCfg(tc.scheme, tc.incl, tc.prefetch, tc.recal, tc.cores)
			live, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			straight, err := Run(cfg, live)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenFingerprint(t, straight)
			captured, blob := captureSolo(t, cfg, replaySources(t, store, cfg, wl))
			if blob == nil {
				t.Fatal("SnapshotSink never fired on a one-slot pass")
			}
			if got := goldenFingerprint(t, captured); got != want {
				t.Errorf("capture pass fingerprint %s, want straight-through %s", got, want)
			}
			branched, err := restoreSolo(cfg, blob, replaySources(t, store, cfg, wl), 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenFingerprint(t, branched); got != want {
				t.Errorf("snapshot->restore->measure fingerprint %s, want straight-through %s", got, want)
			}
			if branched.Perf.RestoreNanos <= 0 {
				t.Errorf("RestoreNanos = %d, want > 0 on a restored run", branched.Perf.RestoreNanos)
			}
		})
	}
}

// TestGoldenSnapshotBranchMulti pins the multi-scheme equivalents: a
// cold RunMulti pass with a SnapshotSink produces the same results as a
// plain pass, and a pass restored from the captured blobs reproduces
// them again — trace-replay sources, the capture mode's requirement.
func TestGoldenSnapshotBranchMulti(t *testing.T) {
	store := tracestore.New(0)
	for _, g := range goldenGroups() {
		t.Run(goldenAxes(g.incl, g.prefetch, g.recal, g.cores), func(t *testing.T) {
			cfg, wl := snapCfg(g.schemes[0], g.incl, g.prefetch, g.recal, g.cores)
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
			straight, err := RunMultiOpt(cfg, g.schemes, mat.Sources(), MultiOptions{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(g.schemes))
			for i := range straight {
				want[i] = goldenFingerprint(t, straight[i])
			}

			var mu sync.Mutex
			blobs := make([][]byte, len(g.schemes))
			captured, err := RunMultiOpt(cfg, g.schemes, mat.Sources(), MultiOptions{
				Parallelism:  2,
				SnapshotSeed: 1,
				SnapshotSink: func(sc Scheme, blob []byte) {
					mu.Lock()
					defer mu.Unlock()
					for i, s := range g.schemes {
						if s == sc {
							blobs[i] = blob
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range captured {
				if got := goldenFingerprint(t, captured[i]); got != want[i] {
					t.Errorf("%s: capture pass fingerprint %s, want %s — SnapshotSink changed results", g.schemes[i], got, want[i])
				}
				if blobs[i] == nil {
					t.Fatalf("%s: SnapshotSink never fired", g.schemes[i])
				}
			}

			restored, err := RunMultiOpt(cfg, g.schemes, mat.Sources(), MultiOptions{
				Parallelism:  2,
				Snapshots:    blobs,
				SnapshotSeed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range restored {
				if got := goldenFingerprint(t, restored[i]); got != want[i] {
					t.Errorf("%s: restored pass fingerprint %s, want %s — snapshot branch diverged", g.schemes[i], got, want[i])
				}
				if restored[i].Perf.RestoreNanos <= 0 {
					t.Errorf("%s: RestoreNanos = %d, want > 0", g.schemes[i], restored[i].Perf.RestoreNanos)
				}
			}
		})
	}
}

// TestSnapshotRejections pins the ErrSnapshot classification: unusable
// blobs must be recoverable (fall back to a cold run), never applied.
func TestSnapshotRejections(t *testing.T) {
	store := tracestore.New(0)
	cfg, wl := snapCfg(ReDHiP, Inclusive, false, 0, 0)
	_, blob := captureSolo(t, cfg, replaySources(t, store, cfg, wl))
	if blob == nil {
		t.Fatal("SnapshotSink never fired")
	}
	fresh := func() []workload.Source { return replaySources(t, store, cfg, wl) }

	t.Run("corrupt blob", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0x40
		if _, err := restoreSolo(cfg, bad, fresh(), 1); !errors.Is(err, ErrSnapshot) {
			t.Errorf("corrupt blob error = %v, want ErrSnapshot", err)
		}
	})
	t.Run("wrong scheme", func(t *testing.T) {
		if _, err := restoreSolo(cfg.WithScheme(Base), blob, fresh(), 1); !errors.Is(err, ErrSnapshot) {
			t.Errorf("wrong-scheme error = %v, want ErrSnapshot", err)
		}
	})
	t.Run("wrong seed", func(t *testing.T) {
		if _, err := restoreSolo(cfg, blob, fresh(), 2); !errors.Is(err, ErrSnapshot) {
			t.Errorf("wrong-seed error = %v, want ErrSnapshot", err)
		}
	})
	t.Run("no warmup window", func(t *testing.T) {
		cold := cfg
		cold.WarmupRefsPerCore = 0
		if _, err := restoreSolo(cold, blob, replaySources(t, store, cold, wl), 1); !errors.Is(err, ErrSnapshot) {
			t.Errorf("warmup-free restore error = %v, want ErrSnapshot", err)
		}
		if _, b := captureSolo(t, cold, replaySources(t, store, cold, wl)); b != nil {
			t.Error("SnapshotSink fired on a pass without a warmup window")
		}
	})
	t.Run("replay shorter than the warmup", func(t *testing.T) {
		mat, err := store.Get(tracestore.Key{
			Workload:    wl,
			Cores:       cfg.Cores,
			Scale:       cfg.WorkloadScale,
			Seed:        1,
			RefsPerCore: cfg.WarmupRefsPerCore - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restoreSolo(cfg, blob, mat.Sources(), 1); !errors.Is(err, ErrSnapshot) {
			t.Errorf("restore past the end of the replay error = %v, want ErrSnapshot", err)
		}
	})
	t.Run("live generated sources", func(t *testing.T) {
		// A restore seeks trace replays to the warmup boundary, so it
		// must refuse live generators — computebound's included.
		cb := cfg
		cb.Scheme = Base
		_, cbBlob := captureSolo(t, cb, replaySources(t, store, cb, "computebound"))
		if cbBlob == nil {
			t.Fatal("SnapshotSink never fired")
		}
		live, err := workload.Sources("computebound", cb.Cores, cb.WorkloadScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restoreSolo(cb, cbBlob, live, 1); !errors.Is(err, ErrSnapshot) {
			t.Errorf("restore over live generators error = %v, want ErrSnapshot", err)
		}
	})
	t.Run("measure length branches", func(t *testing.T) {
		// The warm key zeroes the measure length: one warm state serves
		// measure windows of any length, and each must match its own
		// straight-through run.
		long := cfg
		long.RefsPerCore = 25_000
		live, err := workload.Sources(wl, long.Cores, long.WorkloadScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		straight, err := Run(long, live)
		if err != nil {
			t.Fatal(err)
		}
		branched, err := restoreSolo(long, blob, replaySources(t, store, long, wl), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := goldenFingerprint(t, branched), goldenFingerprint(t, straight); got != want {
			t.Errorf("longer measure window fingerprint %s, want %s", got, want)
		}
	})
}
