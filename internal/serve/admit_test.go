package serve

import (
	"errors"
	"net/http"
	"strconv"
	"testing"
	"time"

	"redhip/internal/faultinject"
	"redhip/internal/sweep"
)

// TestAdmitVerdicts pins the one admission classification POST
// /v1/jobs and POST /v1/sweeps share: for each admit outcome, the
// status and Retry-After a plain job answers with, and that a grid job
// whose one cell is the same spec answers alike.
func TestAdmitVerdicts(t *testing.T) {
	probe, err := specWithSeed(2).normalize()
	if err != nil {
		t.Fatal(err)
	}
	probeGrid := sweep.Grid{
		Workloads:   probe.Workloads,
		Schemes:     probe.Schemes,
		Geometries:  []string{probe.Geometry},
		Seeds:       []uint64{probe.Seed},
		RefsPerCore: []uint64{probe.RefsPerCore},
	}
	est := int64(probe.estimateTraceBytes())
	// hold occupies the only worker with seed 1 until the test ends.
	hold := func(t *testing.T, ts *testServer) {
		release := make(chan struct{})
		entered := make(chan struct{}, 1)
		ts.s.testHookJobStart = func(*Job) {
			entered <- struct{}{}
			<-release
		}
		t.Cleanup(func() { close(release) })
		ts.submit(specWithSeed(1), http.StatusAccepted)
		<-entered
	}
	for _, tc := range []struct {
		name       string
		opts       Options
		setup      func(t *testing.T, ts *testServer)
		code       int
		retryAfter bool
	}{
		{
			name:  "shutdown",
			setup: func(t *testing.T, ts *testServer) { ts.s.stopping.Store(true) },
			code:  http.StatusServiceUnavailable,
		},
		{
			name:       "injected fault",
			opts:       Options{Fault: faultinject.New(1, faultinject.Rule{Point: faultinject.PointServeAdmit, Err: "admission fault"})},
			code:       http.StatusServiceUnavailable,
			retryAfter: true,
		},
		{
			name: "permanent shed",
			opts: Options{MemoryBudgetBytes: est - 1},
			code: http.StatusBadRequest,
		},
		{
			name:       "transient shed",
			opts:       Options{MemoryBudgetBytes: est},
			setup:      hold,
			code:       http.StatusServiceUnavailable,
			retryAfter: true,
		},
		{
			name: "full queue",
			opts: Options{QueueDepth: 1},
			setup: func(t *testing.T, ts *testServer) {
				hold(t, ts)
				ts.submit(specWithSeed(3), http.StatusAccepted)
			},
			code:       http.StatusTooManyRequests,
			retryAfter: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts.Fault != nil && !faultinject.Enabled {
				t.Skip("injection points need -tags faultinject")
			}
			tc.opts.Workers = 1
			ts := newTestServer(t, tc.opts)
			if tc.setup != nil {
				tc.setup(t, ts)
			}

			for _, post := range []struct {
				path string
				body any
			}{{"/v1/jobs", probe}, {"/v1/sweeps", probeGrid}} {
				resp := ts.postRaw(post.path, post.body)
				resp.Body.Close()
				if resp.StatusCode != tc.code {
					t.Fatalf("POST %s = %d, want %d", post.path, resp.StatusCode, tc.code)
				}
				ra := resp.Header.Get("Retry-After")
				if sec, err := strconv.Atoi(ra); tc.retryAfter && (err != nil || sec < 1) {
					t.Errorf("POST %s: Retry-After = %q, want an integer >= 1", post.path, ra)
				} else if !tc.retryAfter && ra != "" {
					t.Errorf("POST %s: Retry-After = %q on a final verdict, want none", post.path, ra)
				}
			}
		})
	}

	t.Run("unknown error", func(t *testing.T) {
		v := retryAfterServer(t, 1, time.Now()).classifyAdmit(errors.New("boom"))
		if v.code != http.StatusInternalServerError || v.retryAfter != 0 {
			t.Errorf("verdict = %+v, want 500 without Retry-After", v)
		}
	})
}
