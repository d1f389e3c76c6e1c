package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestWarmStateMetrics drives warmed jobs through the snapshot cache
// and checks that it shows up on /metrics: puts from the first warmup,
// then hits and restores from a measure-length branch of the same warm
// lineage.
func TestWarmStateMetrics(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, SnapshotCacheBytes: 32 << 20})
	spec := smokeSpec()
	spec.WarmupRefsPerCore = 1000

	r := ts.submit(spec, http.StatusAccepted)
	ts.waitState(r.ID, StateDone)
	if v := ts.metricValue("redhip_simstate_puts_total"); v < 2 {
		t.Errorf("simstate_puts_total = %g, want >= 2 (one warm blob per scheme)", v)
	}

	// A longer measure window shares the warm lineage: the runner must
	// branch from the stored blobs instead of re-warming.
	longer := spec
	longer.RefsPerCore = 3000
	r2 := ts.submit(longer, http.StatusAccepted)
	ts.waitState(r2.ID, StateDone)
	if v := ts.metricValue("redhip_simstate_hits_total"); v < 2 {
		t.Errorf("simstate_hits_total = %g, want >= 2", v)
	}
	if v := ts.metricValue("redhip_simstate_restores_total"); v < 2 {
		t.Errorf("simstate_restores_total = %g, want >= 2 (restored measure pass)", v)
	}
}

// TestSnapshotMetricsAbsentWhenDisabled pins that the simstate families
// only appear once the operator enables the snapshot cache — a scrape
// of a default server stays byte-compatible with older deployments.
func TestSnapshotMetricsAbsentWhenDisabled(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.web.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(raw), "# TYPE redhip_simstate_hits_total ") {
		t.Error("simstate metric family present with the snapshot cache disabled")
	}
}
