package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// buildSolo builds the one engine of a one-slot pass exactly as
// RunMultiOpt does, snapshot capture or restore included.
func buildSolo(t *testing.T, cfg Config, srcs []workload.Source, opt MultiOptions) *engine {
	t.Helper()
	engines, errs, _, err := buildPass(cfg, []Scheme{cfg.Scheme}, srcs, &opt)
	if err != nil {
		t.Fatal(err)
	}
	if engines[0] == nil {
		t.Fatal(errs[0])
	}
	return engines[0]
}

// runTurns drives e to completion in slices of one refill, so it
// yields at every refill point, and checks that it took one turn per
// refill of its windows: each turn made exactly one refill, so no yield
// skipped or repeated one.
func runTurns(t *testing.T, e *engine) {
	t.Helper()
	want := windowRefills(e.cfg.Cores, e.cfg.WarmupRefsPerCore) + windowRefills(e.cfg.Cores, e.cfg.RefsPerCore)
	turns := 1
	for !e.run(1) {
		if turns++; turns > want {
			t.Fatalf("sliced run still unfinished after %d turns, want one per refill (%d)", turns, want)
		}
	}
	if e.halt != nil {
		t.Fatal(e.halt)
	}
	if e.runErr != nil {
		t.Fatal(e.runErr)
	}
	if turns != want {
		t.Errorf("sliced run took %d turns, want one per refill (%d)", turns, want)
	}
}

// windowRefills is the refills a window of refs references per core
// takes over sources that always fill whole blocks.
func windowRefills(cores int, refs uint64) int {
	return cores * int((refs+batchRefs-1)/batchRefs)
}

// TestSlicedRunMatchesGolden pins the resumable run: an engine that
// yields at every refill point and resumes there reproduces every
// golden fingerprint.
func TestSlicedRunMatchesGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name(), func(t *testing.T) {
			cfg, wl := goldenConfig(tc.scheme, tc.incl, tc.prefetch, tc.recal, tc.cores)
			srcs, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			e := buildSolo(t, cfg, srcs, MultiOptions{})
			runTurns(t, e)
			if got := goldenFingerprint(t, e.res); got != tc.want {
				t.Errorf("sliced fingerprint %s, want %s", got, tc.want)
			}
		})
	}
}

// TestSlicedSnapshotBranch extends the sliced run to the snapshot
// layer: a sliced cold pass fires its sink exactly once with the blob
// an unsliced pass captures, and a sliced pass restored from that blob
// reproduces the unsliced result.
func TestSlicedSnapshotBranch(t *testing.T) {
	store := tracestore.New(0)
	for _, tc := range goldenCases {
		t.Run(tc.name(), func(t *testing.T) {
			cfg, wl := snapCfg(tc.scheme, tc.incl, tc.prefetch, tc.recal, tc.cores)
			res, blob := captureSolo(t, cfg, replaySources(t, store, cfg, wl))
			want := goldenFingerprint(t, res)

			var fired int
			var got []byte
			e := buildSolo(t, cfg, replaySources(t, store, cfg, wl), MultiOptions{
				SnapshotSeed: 1,
				SnapshotSink: func(_ Scheme, b []byte) { fired++; got = b },
			})
			runTurns(t, e)
			if fired != 1 {
				t.Fatalf("sliced cold pass fired its sink %d times, want 1", fired)
			}
			if !bytes.Equal(got, blob) {
				t.Errorf("sliced cold pass captured a different blob (%d bytes) than the unsliced pass (%d bytes)", len(got), len(blob))
			}
			if fp := goldenFingerprint(t, e.res); fp != want {
				t.Errorf("sliced cold fingerprint %s, want %s", fp, want)
			}

			e = buildSolo(t, cfg, replaySources(t, store, cfg, wl), MultiOptions{
				Snapshots:    [][]byte{blob},
				SnapshotSeed: 1,
			})
			runTurns(t, e)
			if fp := goldenFingerprint(t, e.res); fp != want {
				t.Errorf("sliced restored fingerprint %s, want %s", fp, want)
			}
		})
	}
}

// slicedConfig is a smoke geometry long enough that every engine of a
// five-scheme pass at two workers crosses several slice boundaries in
// each window.
func slicedConfig(t *testing.T) Config {
	t.Helper()
	cfg := Smoke()
	cfg.WarmupRefsPerCore = 20_000
	cfg.RefsPerCore = 60_000
	if refills := windowRefills(cfg.Cores, cfg.WarmupRefsPerCore+cfg.RefsPerCore); refills < 4*sliceRefills {
		t.Fatalf("%d refills per engine cross fewer than 4 slice boundaries", refills)
	}
	return cfg
}

// TestRunMultiInterruptSliced pins the abort path of a time-sliced
// pass: five schemes on two workers, with an Interrupt that fails on
// its Nth poll only. The pass must return that error — a requeued
// halted engine would poll again, clear its halt and finish — and
// every worker must exit.
func TestRunMultiInterruptSliced(t *testing.T) {
	cfg := slicedConfig(t)
	schemes := validSchemes(cfg)
	if len(schemes) <= 2 {
		t.Fatalf("%d schemes do not time-slice on two workers", len(schemes))
	}
	perEngine := windowRefills(cfg.Cores, cfg.WarmupRefsPerCore+cfg.RefsPerCore)
	wantErr := errors.New("deadline exceeded")
	for _, n := range []int64{1, sliceRefills, sliceRefills + 1, 3*sliceRefills + 5, int64(perEngine * len(schemes) / 2)} {
		t.Run(fmt.Sprintf("poll=%d", n), func(t *testing.T) {
			srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			var polls atomic.Int64
			type outcome struct {
				res []*Result
				err error
			}
			ch := make(chan outcome, 1)
			go func() {
				res, err := RunMultiOpt(cfg, schemes, srcs, MultiOptions{
					Parallelism: 2,
					Interrupt: func() error {
						if polls.Add(1) == n {
							return wantErr
						}
						return nil
					},
				})
				ch <- outcome{res, err}
			}()
			select {
			case o := <-ch:
				if !errors.Is(o.err, wantErr) || o.res != nil {
					t.Fatalf("pass interrupted at poll %d returned results=%v err=%v", n, o.res, o.err)
				}
			case <-time.After(2 * time.Minute):
				t.Fatal("interrupted pass never returned: the worker pool deadlocked")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the pass, %d before: a worker never exited", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRunMultiRaceSliced drives a time-sliced pass — five schemes on
// two workers, each engine moving between workers at every slice —
// with snapshot capture on. Under -race (the CI pass) it checks that
// the queue hand-off publishes each engine's state to the next worker;
// in any mode it checks that every sink fires once and that results
// match sequential Run bit for bit. TestRunMultiRaceAtNumCPU does not
// slice on hosts with five or more CPUs.
func TestRunMultiRaceSliced(t *testing.T) {
	cfg := slicedConfig(t)
	schemes := validSchemes(cfg)
	srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fired := make(map[Scheme]int)
	got, err := RunMultiOpt(cfg, schemes, srcs, MultiOptions{
		Parallelism:  2,
		SnapshotSeed: 1,
		SnapshotSink: func(sc Scheme, _ []byte) {
			mu.Lock()
			fired[sc]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range schemes {
		if fired[sc] != 1 {
			t.Errorf("%s: snapshot sink fired %d times, want 1", sc, fired[sc])
		}
		srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(cfg.WithScheme(sc), srcs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripPerf(got[i]), stripPerf(want)) {
			t.Errorf("%s: time-sliced RunMulti diverged from sequential Run", sc)
		}
	}
}
