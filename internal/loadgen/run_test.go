package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunAccounting drives a fast schedule at a scripted server that
// cycles through the full outcome palette and checks every response
// lands in the right report bucket.
func TestRunAccounting(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		switch calls.Add(1) % 5 {
		case 1:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"deduped":false}`)
		case 2:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"deduped":true}`)
		case 3:
			w.WriteHeader(http.StatusTooManyRequests)
		case 4:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 0:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer srv.Close()

	p := Profile{
		Seed:    42,
		Phases:  []Phase{{DurationSeconds: 0.25, RatePerSec: 400}},
		Cohorts: oneCohort(),
	}
	want := len(mustSchedule(t, p))
	if want < 50 {
		t.Fatalf("schedule too small to exercise accounting: %d arrivals", want)
	}

	rep, err := Run(context.Background(), p, Options{BaseURL: srv.URL})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tot := rep.Total
	if rep.Arrivals != want || tot.Sent != want {
		t.Fatalf("arrivals=%d sent=%d, want %d", rep.Arrivals, tot.Sent, want)
	}
	// The handler's modulo split is exact over the total even though
	// request order is concurrent.
	counts := map[string]int{
		"accepted": tot.Accepted, "deduped": tot.Deduped,
		"429": tot.Rejected429, "503": tot.Rejected503, "5xx": tot.ServerErrors,
	}
	expect := map[string]int{
		"accepted": bucketCount(want, 1) + bucketCount(want, 2),
		"deduped":  bucketCount(want, 2),
		"429":      bucketCount(want, 3),
		"503":      bucketCount(want, 4),
		"5xx":      bucketCount(want, 0),
	}
	for k, got := range counts {
		if got != expect[k] {
			t.Errorf("%s = %d, want %d", k, got, expect[k])
		}
	}
	if tot.NetworkErrors != 0 || tot.OtherHTTP != 0 {
		t.Fatalf("spurious errors: %+v", tot)
	}
	if tot.P50Ms <= 0 || tot.P99Ms < tot.P50Ms || tot.MaxMs < tot.P99Ms {
		t.Fatalf("latency percentiles not ordered: %+v", tot)
	}
	if len(rep.Cohorts) != 1 || rep.Cohorts[0].Name != "a" || rep.Cohorts[0].Sent != want {
		t.Fatalf("cohort report wrong: %+v", rep.Cohorts)
	}

	// The report is machine-readable: it round-trips through its own
	// writer as valid JSON.
	var buf jsonBuffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Total.Sent != want {
		t.Fatalf("round-tripped total sent %d, want %d", back.Total.Sent, want)
	}
}

// bucketCount is how many of n sequential calls land in modulo slot s
// (1-indexed calls, slots 0..4).
func bucketCount(n, s int) int {
	count := 0
	for call := 1; call <= n; call++ {
		if call%5 == s {
			count++
		}
	}
	return count
}

type jsonBuffer struct{ data []byte }

func (b *jsonBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// TestRunNetworkErrors points the generator at a dead address: every
// arrival must be accounted as a network error, none dropped.
func TestRunNetworkErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // now refusing connections

	p := Profile{
		Seed:    7,
		Phases:  []Phase{{DurationSeconds: 0.1, RatePerSec: 100}},
		Cohorts: oneCohort(),
	}
	want := len(mustSchedule(t, p))
	rep, err := Run(context.Background(), p, Options{BaseURL: srv.URL})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Total.Sent != want || rep.Total.NetworkErrors != want {
		t.Fatalf("sent=%d networkErrors=%d, want both %d", rep.Total.Sent, rep.Total.NetworkErrors, want)
	}
}

// TestRunCancellation stops scheduling when the context dies; the run
// returns promptly with only the arrivals fired before cancellation.
func TestRunCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first arrival
	p := Profile{
		Seed:    7,
		Phases:  []Phase{{DurationSeconds: 30, RatePerSec: 1}},
		Cohorts: oneCohort(),
	}
	rep, err := Run(ctx, p, Options{BaseURL: srv.URL})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Total.Sent != 0 {
		t.Fatalf("cancelled run sent %d requests", rep.Total.Sent)
	}
	if rep.WallSeconds > 5 {
		t.Fatalf("cancelled run took %.1fs", rep.WallSeconds)
	}
}

// TestFirstArrivalWaitsForItsOffset: Run's pacing timer starts as a
// zero timer, and its tick must not stand in for the first arrival's.
// The test makes Run's timer wait until that tick has fired — the
// interleaving that made TestRunCancellation flaky — and then checks
// that a profile whose first arrival is due after 200 ms sends nothing
// before then.
func TestFirstArrivalWaitsForItsOffset(t *testing.T) {
	p := Profile{
		Seed:    7,
		Phases:  []Phase{{DurationSeconds: 30, RatePerSec: 1}},
		Cohorts: oneCohort(),
	}
	norm, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if first := mustSchedule(t, norm)[0].At; first < 200*time.Millisecond {
		t.Fatalf("first arrival due at %s, the test needs at least 200ms", first)
	}
	t.Cleanup(func() { newTimer = time.NewTimer })
	newTimer = func(d time.Duration) *time.Timer {
		timer := time.NewTimer(d)
		// Under the pre-1.23 timer rules a fired tick sits in the
		// channel's buffer; wait for it, bounded, since newer rules
		// never buffer one.
		for deadline := time.Now().Add(100 * time.Millisecond); len(timer.C) == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return timer
	}

	var sent atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent.Add(1)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, p, Options{BaseURL: srv.URL})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Total.Sent != 0 || sent.Load() != 0 {
		t.Fatalf("sent %d requests (server saw %d) before the first arrival was due", rep.Total.Sent, sent.Load())
	}
}
