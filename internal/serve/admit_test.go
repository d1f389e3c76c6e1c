package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"testing"
	"time"

	"redhip/internal/faultinject"
)

// TestAdmitVerdicts pins the one admission classification POST /v1/jobs
// and the sweep orchestrator share: for each admitSpec outcome, the
// status and Retry-After the submission answers with, and that
// admitChild waits and retries exactly when a Retry-After is given.
func TestAdmitVerdicts(t *testing.T) {
	probe, err := specWithSeed(2).normalize()
	if err != nil {
		t.Fatal(err)
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

			resp := ts.submitRaw(probe)
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("POST /v1/jobs = %d, want %d", resp.StatusCode, tc.code)
			}
			ra := resp.Header.Get("Retry-After")
			if sec, err := strconv.Atoi(ra); tc.retryAfter && (err != nil || sec < 1) {
				t.Errorf("Retry-After = %q, want an integer >= 1", ra)
			} else if !tc.retryAfter && ra != "" {
				t.Errorf("Retry-After = %q on a final verdict, want none", ra)
			}

			// Every transient wait is at least 20ms, so a shorter deadline
			// ends admitChild inside its first wait.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			_, _, err := ts.s.admitChild(ctx, probe)
			waited := ts.s.metrics.sweepAdmitWaits.Load() > 0
			switch {
			case waited != tc.retryAfter:
				t.Errorf("admitChild waited = %v, want %v (err %v)", waited, tc.retryAfter, err)
			case tc.retryAfter && !errors.Is(err, context.DeadlineExceeded):
				t.Errorf("retrying admitChild = %v, want the deadline", err)
			case !tc.retryAfter && (err == nil || errors.Is(err, context.DeadlineExceeded)):
				t.Errorf("final admitChild = %v, want the admission error", err)
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
