package serve

import (
	"testing"
	"time"
)

// retryAfterServer wires the minimal Server slice retryAfterSeconds
// reads — metrics, store, queue, worker count — under a scripted
// clock, so the estimate is tested arithmetically instead of racing
// real workers.
func retryAfterServer(t *testing.T, workers int, at time.Time) *Server {
	t.Helper()
	return &Server{
		opts:    Options{Workers: workers},
		queue:   newJobQueue(64),
		store:   NewTable[*Job]("job-%06d", 64),
		metrics: newMetrics(),
		now:     func() time.Time { return at },
	}
}

// startRunningJob registers a distinct job and back-dates its running
// start to the given time.
func startRunningJob(t *testing.T, s *Server, seed uint64, started time.Time) {
	t.Helper()
	spec := Spec{Workloads: []string{"mcf"}, Schemes: []string{"base"}, Geometry: "smoke", Seed: seed, RefsPerCore: 1000}
	norm, err := spec.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	j, created := resolveJob(t, s.store, norm, started)
	if !created {
		t.Fatalf("resolve deduplicated a distinct spec")
	}
	if !j.start(nil, started, 0) {
		t.Fatalf("job did not start")
	}
}

func TestRetryAfterAccountsForInFlightRemainder(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s := retryAfterServer(t, 2, now)

	// No completed runs yet: no latency signal, answer the minimum.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("retryAfter with no history = %d, want 1", got)
	}

	// Mean run latency 4s.
	s.metrics.observeRun("base", 4.0)

	// Two in-flight runs, 1s and 3s into their expected 4s: the
	// remainders are 3s and 1s. Three queued jobs plus the incoming one
	// wait a full mean each: 16s. Two workers drain (16+4)/2 = 10s.
	startRunningJob(t, s, 101, now.Add(-1*time.Second))
	startRunningJob(t, s, 102, now.Add(-3*time.Second))
	for i := 0; i < 3; i++ {
		if err := s.queue.push(&Job{}); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if got := s.retryAfterSeconds(); got != 10 {
		t.Fatalf("retryAfter = %d, want 10 (queued 16s + remaining 4s over 2 workers)", got)
	}

	// A run that has blown past the mean contributes zero remainder,
	// not a negative one.
	startRunningJob(t, s, 103, now.Add(-30*time.Second))
	if got := s.retryAfterSeconds(); got != 10 {
		t.Fatalf("retryAfter with an overdue run = %d, want 10", got)
	}

	// A back-dated start in the future (clock skew) clamps at the full
	// mean rather than inflating the estimate beyond one run.
	startRunningJob(t, s, 104, now.Add(50*time.Second))
	if got := s.retryAfterSeconds(); got != 12 {
		t.Fatalf("retryAfter with skewed start = %d, want 12 ((16+4+4)/2)", got)
	}
}

func TestRetryAfterClamps(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	// Idle single worker with a tiny mean: floor at 1.
	s := retryAfterServer(t, 4, now)
	s.metrics.observeRun("base", 0.01)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("retryAfter floor = %d, want 1", got)
	}

	// One worker, long mean, deep queue: ceiling at 60.
	s = retryAfterServer(t, 1, now)
	s.metrics.observeRun("base", 30.0)
	for i := 0; i < 8; i++ {
		if err := s.queue.push(&Job{}); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if got := s.retryAfterSeconds(); got != 60 {
		t.Fatalf("retryAfter ceiling = %d, want 60", got)
	}
}
