package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// TestSourcePathsAgree pins that every way a run can be fed produces
// the same Result, field for field, for every workload: live
// generation, a trace store replay, and a warm-state capture then
// restore over replays. Per-core source metadata matters here — mix
// runs a different benchmark, at a different CPI, on every core, so a
// replay that hands all cores one core's CPI times mix wrongly while
// every other workload still agrees.
func TestSourcePathsAgree(t *testing.T) {
	store := tracestore.New(0)
	for _, wl := range append(workload.BenchmarkNames(), "computebound") {
		t.Run(wl, func(t *testing.T) {
			cfg := Smoke()
			cfg.Scheme = ReDHiP
			cfg.WarmupRefsPerCore = 5_000
			cfg.RefsPerCore = 10_000
			live, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(cfg, live)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := Run(cfg, replaySources(t, store, cfg, wl))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "store replay", replayed, want)
			captured, blob := captureSolo(t, cfg, replaySources(t, store, cfg, wl))
			if blob == nil {
				t.Fatal("SnapshotSink never fired")
			}
			sameResult(t, "capture pass", captured, want)
			restored, err := restoreSolo(cfg, blob, replaySources(t, store, cfg, wl), 1)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "snapshot restore", restored, want)
		})
	}
}

// sameResult fails the test unless got equals the live-source want in
// every deterministic field (Perf, the host-side timing, is excluded).
func sameResult(t *testing.T, path string, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.Perf, w.Perf = PerfStats{}, PerfStats{}
	if reflect.DeepEqual(g, w) {
		return
	}
	gj, _ := json.Marshal(g)
	wj, _ := json.Marshal(w)
	t.Errorf("%s diverged from live generation (cycles %d, want %d):\n  got:  %s\n  want: %s",
		path, g.Cycles, w.Cycles, gj, wj)
}
