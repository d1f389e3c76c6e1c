package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
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

// --- circuit breaker -----------------------------------------------------------

// TestBreakerStateMachine drives one scheme's circuit through
// closed -> open -> half-open -> open -> half-open -> closed with an
// injected clock.
func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := newBreaker(3, time.Minute, &Counter{})
	b.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		b.onRun("base", true)
		if err := b.allow([]string{"base"}); err != nil {
			t.Fatalf("failure %d tripped early: %v", i+1, err)
		}
	}
	b.onRun("base", true) // third consecutive: trip
	err := b.allow([]string{"base", "redhip"})
	boe, ok := err.(*breakerOpenError)
	if !ok || boe.Scheme != "base" || boe.RetryAfter != time.Minute {
		t.Fatalf("allow after trip = %v, want open(base, 1m)", err)
	}
	if got := b.openSchemes(); len(got) != 1 || got[0] != "base" {
		t.Fatalf("openSchemes = %v", got)
	}
	if err := b.allow([]string{"redhip"}); err != nil {
		t.Fatalf("unrelated scheme shed: %v", err)
	}

	// Cooldown passes: half-open admits, a failure re-opens instantly.
	clock = clock.Add(61 * time.Second)
	if err := b.allow([]string{"base"}); err != nil {
		t.Fatalf("half-open did not admit: %v", err)
	}
	b.onRun("base", true)
	if err := b.allow([]string{"base"}); err == nil {
		t.Fatalf("half-open failure did not re-open")
	}
	if got := b.trips.Load(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}

	// Next cooldown: a success closes for good.
	clock = clock.Add(2 * time.Minute)
	if err := b.allow([]string{"base"}); err != nil {
		t.Fatalf("second half-open did not admit: %v", err)
	}
	b.onRun("base", false)
	b.onRun("base", true)
	b.onRun("base", true)
	if err := b.allow([]string{"base"}); err != nil {
		t.Fatalf("closed circuit shed below threshold: %v", err)
	}
}

// TestBreakerShedsSubmissions: an open circuit sheds matching
// submissions with 503 + Retry-After and flips /readyz, and the
// cooldown restores both.
func TestBreakerShedsSubmissions(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, BreakerThreshold: 2, BreakerCooldown: time.Minute})
	clock := time.Unix(2000, 0)
	ts.s.breaker.now = func() time.Time { return clock }
	ts.s.breaker.onRun("base", true)
	ts.s.breaker.onRun("base", true) // trip

	resp := ts.submitRaw(specWithSeed(7))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission under open circuit = %d, want 503", resp.StatusCode)
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec < 1 {
		t.Fatalf("Retry-After = %q, want >= 1s", resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
	if v := ts.metricValue("redhip_serve_shed_breaker_total"); v != 1 {
		t.Fatalf("shed_breaker_total = %g, want 1", v)
	}
	if v := ts.metricValue("redhip_serve_breaker_trips_total"); v != 1 {
		t.Fatalf("breaker_trips_total = %g, want 1", v)
	}
	assertReadyz(t, ts, http.StatusServiceUnavailable)
	if v := ts.metricValue("redhip_serve_ready"); v != 0 {
		t.Fatalf("ready gauge = %g, want 0", v)
	}

	// Cooldown elapses: readiness returns and the submission is admitted.
	clock = clock.Add(2 * time.Minute)
	assertReadyz(t, ts, http.StatusOK)
	sub := ts.submit(specWithSeed(7), http.StatusAccepted)
	ts.waitState(sub.ID, StateDone)
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

// --- retry policy plumbing -----------------------------------------------------

func TestRetryPolicyNormalization(t *testing.T) {
	base := smokeSpec()
	bad := []*RetryPolicy{
		{MaxAttempts: 0},
		{MaxAttempts: -2},
		{MaxAttempts: 3, BackoffMS: -1},
		{MaxAttempts: 3, BackoffMS: 500, MaxBackoffMS: 100},
	}
	for i, p := range bad {
		s := base
		s.Retry = p
		if _, err := s.normalize(); err == nil {
			t.Errorf("case %d: policy %+v normalised", i, p)
		}
	}

	s := base
	s.Retry = &RetryPolicy{MaxAttempts: 4}
	norm, err := s.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Retry.BackoffMS != 100 || norm.Retry.MaxBackoffMS != 5000 {
		t.Fatalf("defaults not filled: %+v", norm.Retry)
	}
	if s.Retry.BackoffMS != 0 {
		t.Fatalf("normalize mutated the caller's policy: %+v", s.Retry)
	}
	// Retry is execution-only: it must not split the dedup key.
	plain, err := base.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.key() != plain.key() {
		t.Fatalf("retry policy changed the dedup key")
	}
}

func TestMaxAttemptsCap(t *testing.T) {
	s, err := New(Options{Workers: 1, RetryMaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	spec := smokeSpec()
	if got := s.maxAttempts(spec); got != 1 {
		t.Fatalf("no policy: maxAttempts = %d, want 1", got)
	}
	spec.Retry = &RetryPolicy{MaxAttempts: 10}
	if got := s.maxAttempts(spec); got != 3 {
		t.Fatalf("capped: maxAttempts = %d, want 3", got)
	}

	off, err := New(Options{Workers: 1, RetryMaxAttempts: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Shutdown(context.Background())
	if got := off.maxAttempts(spec); got != 1 {
		t.Fatalf("disabled: maxAttempts = %d, want 1", got)
	}
}

// TestBackoffDeterminism: the jittered backoff is a pure function of
// (policy, key, attempt), exponential, and capped.
func TestBackoffDeterminism(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 6, BackoffMS: 100, MaxBackoffMS: 800}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 5; attempt++ {
		d1 := backoffDelay(p, "cafebabe", attempt)
		d2 := backoffDelay(p, "cafebabe", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic backoff %s vs %s", attempt, d1, d2)
		}
		full := float64(100) * float64(int(1)<<(attempt-1))
		if full > 800 {
			full = 800
		}
		lo := time.Duration(full * 0.5 * float64(time.Millisecond))
		hi := time.Duration(full * float64(time.Millisecond))
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: backoff %s outside [%s, %s]", attempt, d1, lo, hi)
		}
		_ = prev
	}
	if d := backoffDelay(p, "cafebabe", 1); d == backoffDelay(p, "deadbeef", 1) {
		t.Fatalf("different keys produced identical jitter (possible, astronomically unlikely)")
	}
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
