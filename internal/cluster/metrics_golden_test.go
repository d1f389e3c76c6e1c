package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"redhip/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestRouterMetricsGolden pins the router's /metrics exposition byte
// for byte from a fixed state: every counter family, members in four
// membership states, the ring size, and resident routed jobs.
// Regenerate with -update only when a family is deliberately added or
// renamed.
func TestRouterMetricsGolden(t *testing.T) {
	rt, err := New(Options{MaxJobs: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()

	// Three unique submissions against an empty ring: each is refused
	// 503 and stays resident as a cancelled job.
	for n := 0; n < 3; n++ {
		body, _ := json.Marshal(testSpec(n))
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("submit %d = %d, want 503", n, rec.Code)
		}
	}
	m := rt.metrics
	for i, c := range []*serve.Counter{
		m.deduped, m.proxiedRejections, m.rehomes,
		m.watchReconnects, m.jobs.Done, m.jobs.Failed,
	} {
		for n := 0; n <= i; n++ {
			c.Inc()
		}
	}

	// Members are installed directly (no probers), so their states hold.
	ms := rt.members
	ms.mu.Lock()
	for name, st := range map[string]MemberState{
		"alpha": MemberReady, "beta": MemberReady, "gamma": MemberDead,
		"delta": MemberDraining, "eps": MemberJoining,
	} {
		ms.members[name] = &Member{Name: name, state: st}
	}
	ms.rebuildRingLocked()
	ms.mu.Unlock()

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	checkGolden(t, "metrics.golden", rec.Body.Bytes())
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
