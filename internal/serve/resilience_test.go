package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// --- worker panic isolation (regression: panicking job leaked its worker slot) --

// TestWorkerPanicSlotAndKeyRecovery: a panic in the worker's execution
// stack must fail the job cleanly — stack in the event log, dedup key
// released so the spec can be resubmitted, and the worker slot reused
// by the next job. With Workers: 1 the follow-up submissions only
// complete if the panicked worker survived.
func TestWorkerPanicSlotAndKeyRecovery(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	var boom atomic.Bool
	boom.Store(true)
	ts.s.testHookJobStart = func(*Job) {
		if boom.CompareAndSwap(true, false) {
			panic("hook exploded")
		}
	}

	sub := ts.submit(specWithSeed(1), http.StatusAccepted)
	st := ts.waitState(sub.ID, StateFailed)
	if !strings.Contains(st.Error, "worker panicked") || !strings.Contains(st.Error, "hook exploded") {
		t.Fatalf("failed job error = %q, want worker panic message", st.Error)
	}
	if v := ts.metricValue("redhip_serve_worker_panics_total"); v != 1 {
		t.Fatalf("worker_panics_total = %g, want 1", v)
	}

	// The stack is in the event log, not just server stderr.
	replay, _, unsub := ts.s.store.Get(sub.ID).log.Subscribe()
	unsub()
	var sawPanic bool
	for _, ev := range replay {
		if ev.Type == "panic" {
			var pd panicData
			if err := json.Unmarshal(ev.Data, &pd); err != nil {
				t.Fatalf("panic event payload: %v", err)
			}
			if !strings.Contains(pd.Stack, "goroutine") || pd.Value != "hook exploded" {
				t.Fatalf("panic event = %+v, want stack and value", pd)
			}
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatalf("no panic event in log: %+v", replay)
	}

	// Key released: the identical spec resubmits as a fresh job, and the
	// surviving worker slot runs it to completion.
	again := ts.submit(specWithSeed(1), http.StatusAccepted)
	if again.Deduped || again.ID == sub.ID {
		t.Fatalf("resubmission after panic deduped onto the corpse: %+v", again)
	}
	ts.waitState(again.ID, StateDone)
}

// --- dedup-key wedge (regression: failed job stayed key-resolvable) ------------

// TestFinishReleaseAtomicity: FinishRelease must deliver the terminal
// event, close subscribers, and drop the key binding in one table-lock
// hold, so no resolve can attach to a terminally failed job.
func TestFinishReleaseAtomicity(t *testing.T) {
	st := NewTable[*Job]("job-%06d", 8)
	spec, err := smokeSpec().normalize()
	if err != nil {
		t.Fatal(err)
	}
	j, created := resolveJob(t, st, spec, time.Now())
	if !created {
		t.Fatalf("resolve on an empty table deduplicated")
	}
	_, live, unsub := j.log.Subscribe()
	defer unsub()

	fail := func(state State, msg string) func() bool {
		return func() bool { return j.finish(state, msg, nil, time.Now()) }
	}
	if !st.FinishRelease(j.Key, j, fail(StateFailed, "transient blowup")) {
		t.Fatalf("FinishRelease lost a transition race on a fresh job")
	}
	// The subscriber sees the terminal event, then the closed channel.
	var last Event
	for ev := range live {
		last = ev
	}
	if last.Type != "failed" {
		t.Fatalf("last streamed event = %q, want failed", last.Type)
	}
	// A second finisher loses; the key is free for a fresh execution.
	if st.FinishRelease(j.Key, j, fail(StateCancelled, "late")) {
		t.Fatalf("second FinishRelease won")
	}
	j2, created := resolveJob(t, st, spec, time.Now())
	if !created || j2 == j {
		t.Fatalf("resolve after failure: created=%v same=%v", created, j2 == j)
	}
}

func assertReadyz(t *testing.T, ts *testServer, want int) {
	t.Helper()
	resp, err := http.Get(ts.web.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	var body Readiness
	if derr := json.NewDecoder(resp.Body).Decode(&body); derr != nil {
		t.Fatalf("decode /readyz: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("/readyz = %d (%+v), want %d", resp.StatusCode, body, want)
	}
	if body.Ready != (want == http.StatusOK) {
		t.Fatalf("/readyz body %+v inconsistent with status %d", body, resp.StatusCode)
	}
}

// --- byte-budget load shedding -------------------------------------------------

// TestMemorySheddingTemporary: a budget sized for exactly one job
// admits the first, sheds the second with 503 + Retry-After while the
// first is in flight, and recovers (readyz included) once the
// reservation is released.
func TestMemorySheddingTemporary(t *testing.T) {
	norm, err := specWithSeed(1).normalize()
	if err != nil {
		t.Fatal(err)
	}
	est := norm.estimateTraceBytes()
	if est == 0 {
		t.Fatalf("estimateTraceBytes = 0 for %+v", norm)
	}
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, MemoryBudgetBytes: int64(est)})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	ts.s.testHookJobStart = func(*Job) {
		entered <- struct{}{}
		<-release
	}

	first := ts.submit(specWithSeed(1), http.StatusAccepted)
	<-entered
	if v := ts.metricValue("redhip_serve_memory_reserved_bytes"); v != float64(est) {
		t.Fatalf("memory_reserved_bytes = %g, want %g", v, float64(est))
	}

	resp := ts.submitRaw(specWithSeed(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget submission = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-budget 503 missing Retry-After")
	}
	resp.Body.Close()
	if v := ts.metricValue("redhip_serve_shed_memory_total"); v != 1 {
		t.Fatalf("shed_memory_total = %g, want 1", v)
	}
	assertReadyz(t, ts, http.StatusServiceUnavailable)

	// A duplicate of in-flight work is never shed: it attaches for free.
	dup := ts.submit(specWithSeed(1), http.StatusAccepted)
	if !dup.Deduped {
		t.Fatalf("identical spec not deduped under shed pressure")
	}

	close(release)
	ts.waitState(first.ID, StateDone)
	if v := ts.metricValue("redhip_serve_memory_reserved_bytes"); v != 0 {
		t.Fatalf("reservation not released: memory_reserved_bytes = %g", v)
	}
	assertReadyz(t, ts, http.StatusOK)
	retried := ts.submit(specWithSeed(2), http.StatusAccepted)
	ts.waitState(retried.ID, StateDone)
}

// TestMemorySheddingPermanent: a job whose estimate exceeds the whole
// budget can never be admitted — that is a 400, not a retryable 503.
func TestMemorySheddingPermanent(t *testing.T) {
	norm, err := specWithSeed(1).normalize()
	if err != nil {
		t.Fatal(err)
	}
	est := norm.estimateTraceBytes()
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, MemoryBudgetBytes: int64(est) - 1})
	resp := ts.submitRaw(specWithSeed(1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("impossible job = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// A permanent verdict is not "shedding": readiness is unaffected.
	assertReadyz(t, ts, http.StatusOK)
}

// --- probes --------------------------------------------------------------------

// TestHealthzLivenessDuringDrain: /healthz stays 200 through shutdown
// (the process is alive and draining); /readyz flips to 503.
func TestHealthzLivenessDuringDrain(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	if err := ts.s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, err := http.Get(ts.web.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", resp.StatusCode)
	}
	assertReadyz(t, ts, http.StatusServiceUnavailable)
}
