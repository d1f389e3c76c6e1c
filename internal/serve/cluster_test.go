package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadyzReasonsJSON: /readyz carries machine-readable reasons the
// cluster router keys its membership state machine on — empty while
// ready, "stopping" while draining — without changing the status-code
// contract.
func TestReadyzReasonsJSON(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	resp, err := http.Get(ts.web.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET readyz: %v", err)
	}
	var body Readiness
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !body.Ready || len(body.Reasons) != 0 {
		t.Fatalf("idle readyz = %d ready=%v reasons=%v, want 200/true/none", resp.StatusCode, body.Ready, body.Reasons)
	}

	ts.s.stopping.Store(true)
	defer ts.s.stopping.Store(false)
	resp, err = http.Get(ts.web.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET readyz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("stopping readyz = %d ready=%v, want 503/false", resp.StatusCode, body.Ready)
	}
	if len(body.Reasons) != 1 || body.Reasons[0] != ReasonStopping {
		t.Fatalf("stopping reasons = %v, want [stopping]", body.Reasons)
	}
}

// TestExecutionsDoneCounter: each unique spec that completes its sweep
// counts exactly once — deduplicated resubmissions do not inflate it.
// The failover drill sums this across replicas to prove no spec ran
// twice.
func TestExecutionsDoneCounter(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	sub := ts.submit(smokeSpec(), http.StatusAccepted)
	ts.waitState(sub.ID, StateDone)
	if got := ts.s.ExecutionsDone(); got != 1 {
		t.Fatalf("ExecutionsDone = %d after one job, want 1", got)
	}

	dup := ts.submit(smokeSpec(), http.StatusAccepted)
	if !dup.Deduped {
		t.Fatal("resubmission of a done spec was not deduped")
	}
	if got := ts.s.ExecutionsDone(); got != 1 {
		t.Fatalf("ExecutionsDone = %d after dedup, want still 1", got)
	}

	resp, err := http.Get(ts.web.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "redhip_serve_executions_done_total 1") {
		t.Fatalf("metrics lack executions_done counter:\n%s", raw)
	}
}

// TestLeaseDerivedFromRouterAck: a replica without an explicit
// LeaseTimeout derives its fencing lease from the dead-declaration
// floor the router advertises in its registration ack (3/4 of it, so
// the fence always precedes job re-homing), while an explicitly
// configured lease is honoured untouched.
func TestLeaseDerivedFromRouterAck(t *testing.T) {
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/register" {
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, `{"state":"joining","dead_after_ms":400}`)
			return
		}
		http.NotFound(w, r)
	}))
	defer router.Close()

	auto := newTestServer(t, Options{
		Workers:      1,
		QueueDepth:   4,
		RouterURL:    router.URL,
		AdvertiseURL: "http://127.0.0.1:1", // never dialled by this test
		ReplicaName:  "auto-lease",
	})
	want := 300 * time.Millisecond // 3/4 of the advertised 400ms floor
	deadline := time.Now().Add(2 * time.Second)
	for auto.s.leaseNow() != want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := auto.s.leaseNow(); got != want {
		t.Fatalf("auto lease = %s, want %s derived from the ack", got, want)
	}

	explicit := newTestServer(t, Options{
		Workers:      1,
		QueueDepth:   4,
		RouterURL:    router.URL,
		AdvertiseURL: "http://127.0.0.1:1",
		ReplicaName:  "explicit-lease",
		LeaseTimeout: 5 * time.Second,
	})
	// Give the registration loop time to process at least one ack, then
	// confirm the explicit lease was not recalibrated.
	deadline = time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got := explicit.s.leaseNow(); got != 5*time.Second {
			t.Fatalf("explicit lease = %s, want the configured 5s", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLateProbeFencesBeforeRenewing: a router probe that arrives after
// the lease lapsed — probes queued while the process was stopped land
// on resume, possibly before the watchdog's next tick — fences before
// it renews, so the jobs the router has already re-homed cannot also
// finish here. No watchdog runs in this test (no RouterURL), so only
// renewLease can fence: with an unconditional store of the probe time
// LeaseFences stays 0 and the queued job stays queued.
func TestLateProbeFencesBeforeRenewing(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	// A lease far longer than the test, so only the stamp stored below
	// can be stale.
	lease := time.Minute
	ts.s.leaseNanos.Store(int64(lease))

	// One job long enough to hold the only worker, one queued behind it.
	long := smokeSpec()
	long.RefsPerCore = 2_000_000
	running := ts.submit(long, http.StatusAccepted)
	queued := ts.submit(smokeSpec(), http.StatusAccepted)
	if st := ts.status(queued.ID); st.State != StateQueued {
		t.Fatalf("second job state = %q, want queued behind the long job", st.State)
	}

	ts.s.lastProbe.Store(time.Now().Add(-2 * lease).UnixNano())
	ts.s.renewLease()
	if got := ts.s.LeaseFences(); got != 1 {
		t.Fatalf("LeaseFences = %d after a probe past the lease, want 1", got)
	}
	if st := ts.status(queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job state = %q after the late probe, want cancelled", st.State)
	}
	ts.waitState(running.ID, StateCancelled)

	// The late probe renewed the lease: a prompt follow-up does not fence.
	ts.s.renewLease()
	if got := ts.s.LeaseFences(); got != 1 {
		t.Fatalf("LeaseFences = %d after a prompt probe, want still 1", got)
	}
	if ts.s.ExecutionsDone() != 0 {
		t.Fatal("fenced jobs still counted as executions")
	}
}

// TestLeaseFenceCancelsJobs: a replica in cluster mode that stops
// seeing router probes for longer than its lease fences itself — every
// non-terminal job is cancelled so the router's re-homed copies are
// the only ones that can complete. The next probe re-arms the lease
// rather than leaving the replica permanently fenced.
func TestLeaseFenceCancelsJobs(t *testing.T) {
	var registrations atomic.Int64
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/register" {
			registrations.Add(1)
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, "{}")
			return
		}
		http.NotFound(w, r)
	}))
	defer router.Close()

	ts := newTestServer(t, Options{
		Workers:      1,
		QueueDepth:   4,
		RouterURL:    router.URL,
		AdvertiseURL: "http://127.0.0.1:1", // never dialled by this test
		ReplicaName:  "fence-test",
		LeaseTimeout: 80 * time.Millisecond,
	})

	// A job long enough to still be running when the lease lapses.
	spec := smokeSpec()
	spec.RefsPerCore = 2_000_000
	sub := ts.submit(spec, http.StatusAccepted)

	// One router probe arms the lease; no renewal ever follows.
	req, _ := http.NewRequest(http.MethodGet, ts.web.URL+"/readyz", nil)
	req.Header.Set(RouterProbeHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("probe readyz: %v", err)
	}
	resp.Body.Close()

	st := ts.waitState(sub.ID, StateCancelled)
	if st.State != StateCancelled {
		t.Fatalf("fenced job state = %q, want cancelled", st.State)
	}
	if got := ts.s.LeaseFences(); got != 1 {
		t.Fatalf("LeaseFences = %d, want 1 (one lease loss fences once)", got)
	}
	if ts.s.ExecutionsDone() != 0 {
		t.Fatal("fenced job still counted as an execution")
	}

	// The replica announced itself to the router at least once.
	deadline := time.Now().Add(2 * time.Second)
	for registrations.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if registrations.Load() == 0 {
		t.Fatal("replica never registered with the router")
	}

	mresp, err := http.Get(ts.web.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(raw), "redhip_serve_lease_fences_total 1") {
		t.Fatalf("metrics lack lease_fences counter:\n%s", raw)
	}
}
