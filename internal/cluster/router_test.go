package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redhip/internal/serve"
)

// --- fake replica --------------------------------------------------------------

// fakeReplica speaks just enough of redhip-serve's job API for the
// router to place, watch and resolve jobs against it, with per-test
// knobs: mode drives what the event stream eventually emits ("done",
// "cancel", "fail", or "stall" to hang pre-terminal), ready/notReadyReason
// script /readyz, and reject scripts submission rejections. A job
// DELETEd through the fake ends cancelled whatever the mode.
type fakeReplica struct {
	t    *testing.T
	name string
	srv  *httptest.Server

	mode           atomic.Value // "done" | "cancel" | "stall"
	ready          atomic.Bool
	notReadyReason atomic.Value // string, reasons[0] while not ready
	probes         atomic.Int64 // /readyz requests answered

	mu         sync.Mutex
	rejectCode int    // 0 = accept submissions
	retryAfter string // Retry-After header on rejection
	rejectBody string
	jobs       map[string]string // replica job id -> spec key
	submits    []string          // keys in arrival order, dedups excluded
	deleted    map[string]bool   // replica job ids cancelled by DELETE
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{t: t, name: name, jobs: make(map[string]string), deleted: make(map[string]bool)}
	f.mode.Store("done")
	f.ready.Store(true)
	f.notReadyReason.Store("shedding")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}/events", f.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/results", f.handleResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.deleted[r.PathValue("id")] = true
		f.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// setReject scripts every future submission to be rejected.
func (f *fakeReplica) setReject(code int, retryAfter, body string) {
	f.mu.Lock()
	f.rejectCode = code
	f.retryAfter = retryAfter
	f.rejectBody = body
	f.mu.Unlock()
}

// executed returns the keys this replica accepted (created a job for).
func (f *fakeReplica) executed() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.submits...)
}

// resultsFor is the canned result body — distinct per (replica, key)
// so verbatim passthrough is detectable.
func (f *fakeReplica) resultsFor(key string) []byte {
	return []byte(fmt.Sprintf(`[{"key":%q,"served_by":%q}]`, key, f.name))
}

func (f *fakeReplica) handleSubmit(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	if f.rejectCode != 0 {
		code, ra, body := f.rejectCode, f.retryAfter, f.rejectBody
		f.mu.Unlock()
		if ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = io.WriteString(w, body)
		return
	}
	f.mu.Unlock()
	var spec serve.Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	norm, err := spec.Normalized()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := norm.CanonicalKey()
	f.mu.Lock()
	deduped := false
	var id string
	for jid, k := range f.jobs {
		if k == key && !f.deleted[jid] { // a cancelled job released its key
			id, deduped = jid, true
			break
		}
	}
	if !deduped {
		id = fmt.Sprintf("%s-%d", f.name, len(f.jobs)+1)
		f.jobs[id] = key
		f.submits = append(f.submits, key)
	}
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"id":%q,"key":%q,"state":"queued","deduped":%v}`, id, key, deduped)
}

func (f *fakeReplica) handleEvents(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	_, ok := f.jobs[r.PathValue("id")]
	f.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	fl := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "id: 1\nevent: queued\ndata: {\"state\":\"queued\"}\n\n")
	fmt.Fprintf(w, "id: 2\nevent: running\ndata: {\"state\":\"running\"}\n\n")
	fl.Flush()
	for {
		f.mu.Lock()
		mode := f.mode.Load().(string)
		if f.deleted[r.PathValue("id")] {
			mode = "cancel"
		}
		f.mu.Unlock()
		switch mode {
		case "done":
			fmt.Fprintf(w, "id: 3\nevent: done\ndata: {\"state\":\"done\"}\n\n")
			fl.Flush()
			return
		case "fail":
			fmt.Fprintf(w, "id: 3\nevent: failed\ndata: {\"state\":\"failed\",\"error\":\"injected failure\"}\n\n")
			fl.Flush()
			return
		case "cancel":
			fmt.Fprintf(w, "id: 3\nevent: cancelled\ndata: {\"state\":\"cancelled\",\"error\":\"router lease lost: job fenced\"}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (f *fakeReplica) handleResults(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	key, ok := f.jobs[r.PathValue("id")]
	f.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(f.resultsFor(key))
}

func (f *fakeReplica) handleReadyz(w http.ResponseWriter, r *http.Request) {
	f.probes.Add(1)
	w.Header().Set("Content-Type", "application/json")
	if f.ready.Load() {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `{"ready":true}`)
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, `{"ready":false,"reasons":[%q]}`, f.notReadyReason.Load().(string))
}

// --- harness -------------------------------------------------------------------

// newTestRouter builds a router with drill-speed probing and serves it.
func newTestRouter(t *testing.T) (*Router, string) {
	t.Helper()
	return newTestRouterMaxJobs(t, 64)
}

// newTestRouterMaxJobs is newTestRouter with a given job-table bound.
func newTestRouterMaxJobs(t *testing.T, maxJobs int) (*Router, string) {
	t.Helper()
	return newTestRouterOpts(t, Options{
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		FailThreshold:    2,
		SuccessThreshold: 1,
		MaxJobs:          maxJobs,
	})
}

// newTestRouterOpts builds a router with the given options and serves it.
func newTestRouterOpts(t *testing.T, opts Options) (*Router, string) {
	t.Helper()
	rt, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return rt, srv.URL
}

// register announces a fake replica to the router over HTTP and
// returns the response status code and body.
func register(t *testing.T, routerURL string, f *fakeReplica, vers string) (int, string) {
	t.Helper()
	body, _ := json.Marshal(serve.RegistrationBody{Name: f.name, BaseURL: f.srv.URL, Version: vers})
	resp, err := http.Post(routerURL+"/v1/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("register %s: %v", f.name, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// testSpec returns a distinct valid spec per n.
func testSpec(n int) serve.Spec {
	return serve.Spec{
		Workloads:   []string{"mcf"},
		Schemes:     []string{"base", "redhip"},
		Geometry:    "smoke",
		RefsPerCore: uint64(1000 + n),
	}
}

// submitJob POSTs a spec to the router, returning the raw response and
// its decoded body (only on 202).
func submitJob(t *testing.T, routerURL string, spec serve.Spec) (*http.Response, serve.SubmitResponse) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(routerURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out serve.SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode submit response: %v (body %s)", err, raw)
		}
	} else {
		out.ID = ""
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, out
}

// routedStatus GETs one routed job's status.
func routedStatus(t *testing.T, routerURL, id string) RoutedStatus {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var st RoutedStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitRouted polls the routed job until it reaches want.
func waitRouted(t *testing.T, routerURL, id string, want serve.State) RoutedStatus {
	t.Helper()
	var st RoutedStatus
	waitFor(t, fmt.Sprintf("job %s to reach %s", id, want), func() bool {
		st = routedStatus(t, routerURL, id)
		if st.State.Terminal() && st.State != want {
			t.Fatalf("job %s reached %q (err %q), want %q", id, st.State, st.Error, want)
		}
		return st.State == want
	})
	return st
}

// readAllEvents drains a terminal job's router event stream.
func readAllEvents(t *testing.T, routerURL, id string) []serve.Event {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var evs []serve.Event
	for {
		ev, err := serve.ReadSSE(br)
		if err != nil {
			return evs
		}
		evs = append(evs, ev)
	}
}

// --- tests ---------------------------------------------------------------------

// TestRouterVersionSkew: a ring never mixes build versions — the
// second replica's differing version is refused with 409, and joining
// at the ring's version succeeds (exercised with faked versions, not
// the real build's).
func TestRouterVersionSkew(t *testing.T) {
	_, url := newTestRouter(t)
	a := newFakeReplica(t, "alpha")
	b := newFakeReplica(t, "beta")

	code, body := register(t, url, a, "test-v1")
	if code != http.StatusOK {
		t.Fatalf("register alpha = %d (%s)", code, body)
	}
	// The ack advertises the router's dead-declaration floor
	// (FailThreshold=2 x 0.75 x ProbeInterval=20ms = 30ms) so the
	// replica can derive a fencing lease below it.
	var ack struct {
		DeadAfterMillis int64 `json:"dead_after_ms"`
	}
	if err := json.Unmarshal([]byte(body), &ack); err != nil {
		t.Fatalf("decode register ack: %v (%s)", err, body)
	}
	if ack.DeadAfterMillis != 30 {
		t.Fatalf("dead_after_ms = %d, want 30", ack.DeadAfterMillis)
	}
	code, body = register(t, url, b, "test-v2")
	if code != http.StatusConflict {
		t.Fatalf("skewed register beta = %d, want 409 (%s)", code, body)
	}
	if !strings.Contains(body, "version skew") || !strings.Contains(body, "test-v2") {
		t.Fatalf("skew rejection body does not name the conflict: %s", body)
	}
	if code, body := register(t, url, b, "test-v1"); code != http.StatusOK {
		t.Fatalf("matching register beta = %d (%s)", code, body)
	}
}

// TestRouterVersionSkewEvictsDead: only DEAD members of another
// version yield to a newcomer — a rolling upgrade replacing crashed
// replicas is not wedged by their ghosts.
func TestRouterVersionSkewEvictsDead(t *testing.T) {
	rt, url := newTestRouter(t)
	a := newFakeReplica(t, "alpha")
	if code, body := register(t, url, a, "test-v1"); code != http.StatusOK {
		t.Fatalf("register alpha = %d (%s)", code, body)
	}
	waitFor(t, "alpha in ring", func() bool { return rt.members.Ring().Size() == 1 })
	a.srv.Close()
	waitFor(t, "alpha dead", func() bool { return rt.members.get("alpha").stateNow() == MemberDead })

	b := newFakeReplica(t, "beta")
	if code, body := register(t, url, b, "test-v2"); code != http.StatusOK {
		t.Fatalf("upgrade register beta = %d, want 200 (%s)", code, body)
	}
	if rt.members.get("alpha") != nil {
		t.Fatal("dead old-version member alpha should have been evicted")
	}

	// An evicted name can come back: the upgraded alpha re-registers and
	// must get a fresh prober (the evicted ghost's prober is gone), so it
	// reaches ready instead of being stuck joining forever.
	a2 := newFakeReplica(t, "alpha")
	if code, body := register(t, url, a2, "test-v2"); code != http.StatusOK {
		t.Fatalf("re-register alpha = %d, want 200 (%s)", code, body)
	}
	waitFor(t, "re-registered alpha ready", func() bool {
		m := rt.members.get("alpha")
		return m != nil && m.stateNow() == MemberReady
	})
	waitFor(t, "both upgraded replicas in ring", func() bool { return rt.members.Ring().Size() == 2 })
}

// newSlowProbeRouter builds a router whose timed probes are an hour
// apart, so within waitFor's deadline only a probe started by
// registration can move a member.
func newSlowProbeRouter(t *testing.T) (*Router, string) {
	t.Helper()
	return newTestRouterOpts(t, Options{
		ProbeInterval:    time.Hour,
		ProbeTimeout:     500 * time.Millisecond,
		FailThreshold:    1,
		SuccessThreshold: 2,
	})
}

// TestRouterJoinsOnFirstProbe: registration probes the replica at
// once, so it enters the ring one round trip after registering rather
// than after a probe interval; a healthy replica's re-announcement
// starts no further probe.
func TestRouterJoinsOnFirstProbe(t *testing.T) {
	rt, url := newSlowProbeRouter(t)
	f := newFakeReplica(t, "alpha")
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	waitFor(t, "alpha ready in ring", func() bool {
		return rt.members.get("alpha").stateNow() == MemberReady && rt.members.Ring().Size() == 1
	})
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("re-announce = %d (%s)", code, body)
	}
	time.Sleep(100 * time.Millisecond)
	if n := f.probes.Load(); n != 1 {
		t.Fatalf("replica saw %d probes, want 1 (re-announcing a ready member must not probe)", n)
	}
}

// TestRouterMoveKeepsProbeSpacing: a ready member that re-registers
// under a URL that refuses connections stays ready until its next
// timed probe. Replicas size their fencing lease below the advertised
// dead-declaration floor, which assumes failed probes at least
// 0.75 × ProbeInterval apart; a probe started by the re-registration
// would, with FailThreshold 1, declare the member dead and re-home its
// jobs while the replica at the old URL still holds its lease.
func TestRouterMoveKeepsProbeSpacing(t *testing.T) {
	rt, url := newSlowProbeRouter(t)
	f := newFakeReplica(t, "alpha")
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	m := rt.members.get("alpha")
	waitFor(t, "alpha ready", func() bool { return m.stateNow() == MemberReady })

	closed := newFakeReplica(t, "alpha")
	closed.srv.Close()
	if code, body := register(t, url, closed, "test-v1"); code != http.StatusOK {
		t.Fatalf("re-register = %d (%s)", code, body)
	}
	time.Sleep(100 * time.Millisecond)
	if s := m.stateNow(); s != MemberReady || rt.members.Ring().Size() != 1 {
		t.Fatalf("moved alpha is %v with ring size %d, want ready in a ring of 1 until its next timed probe", s, rt.members.Ring().Size())
	}
}

// TestRouterDropsStaleProbeVerdict: a probe still in flight to a URL
// the member has left by re-registering must not apply its verdict.
// The first probe of a member at a hanging URL fails only after the
// member moved to a healthy one; with FailThreshold 1 that stale
// failure would declare the freshly re-registered member dead.
func TestRouterDropsStaleProbeVerdict(t *testing.T) {
	rt, url := newSlowProbeRouter(t)
	arrived, release := make(chan struct{}), make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		select {
		case <-release:
		case <-r.Context().Done(): // the probe timed out
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(hang.Close)
	if code, body := register(t, url, &fakeReplica{name: "alpha", srv: hang}, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for alpha's first probe")
	}

	moved := newFakeReplica(t, "alpha")
	if code, body := register(t, url, moved, "test-v1"); code != http.StatusOK {
		t.Fatalf("re-register = %d (%s)", code, body)
	}
	close(release)
	time.Sleep(100 * time.Millisecond)
	if s := rt.members.get("alpha").stateNow(); s != MemberJoining {
		t.Fatalf("alpha is %v after a stale failed probe, want joining", s)
	}
}

// TestRouterRoutesByKey: with two ready replicas, every submission
// lands on the ring owner of its family key, the response names the
// replica, and results pass through byte-for-byte.
func TestRouterRoutesByKey(t *testing.T) {
	rt, url := newTestRouter(t)
	fakes := map[string]*fakeReplica{
		"alpha": newFakeReplica(t, "alpha"),
		"beta":  newFakeReplica(t, "beta"),
	}
	for _, f := range fakes {
		if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
			t.Fatalf("register %s = %d (%s)", f.name, code, body)
		}
	}
	waitFor(t, "both replicas in ring", func() bool { return rt.members.Ring().Size() == 2 })

	ring := rt.members.Ring()
	perOwner := make(map[string]int)
	for n := 0; n < 8; n++ {
		resp, sub := submitJob(t, url, testSpec(n))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", n, resp.StatusCode)
		}
		owner := ring.Owner(familyOf(t, testSpec(n)))
		if got := resp.Header.Get(ReplicaHeader); got != owner {
			t.Fatalf("spec %d: %s = %q, ring owner is %q", n, ReplicaHeader, got, owner)
		}
		perOwner[owner]++

		st := waitRouted(t, url, sub.ID, serve.StateDone)
		if st.Replica != owner {
			t.Fatalf("spec %d finished on %q, owner is %q", n, st.Replica, owner)
		}
		rres, err := http.Get(url + "/v1/jobs/" + sub.ID + "/results")
		if err != nil {
			t.Fatalf("GET results: %v", err)
		}
		raw, _ := io.ReadAll(rres.Body)
		rres.Body.Close()
		if want := fakes[owner].resultsFor(sub.Key); !bytes.Equal(raw, want) {
			t.Fatalf("spec %d: results not verbatim:\n got %s\nwant %s", n, raw, want)
		}
	}

	// Each replica executed exactly the keys the ring assigned it.
	for name, f := range fakes {
		if got := len(f.executed()); got != perOwner[name] {
			t.Fatalf("replica %s executed %d jobs, ring assigned %d", name, got, perOwner[name])
		}
	}

	// A repeat submission of a done spec dedups against the cached job.
	resp, sub := submitJob(t, url, testSpec(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dup submit = %d", resp.StatusCode)
	}
	if !sub.Deduped {
		t.Fatal("resubmitted done spec was not deduped")
	}
}

// familyOf is the placement key the router computes for spec.
func familyOf(t *testing.T, spec serve.Spec) string {
	t.Helper()
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatalf("normalise %+v: %v", spec, err)
	}
	return familyKey(norm)
}

// TestRouterForwardsRetryAfter: a replica's 429 verdict is forwarded
// verbatim — its status, body and Retry-After header, never a
// synthesized one — with the replica named in the response.
func TestRouterForwardsRetryAfter(t *testing.T) {
	rt, url := newTestRouter(t)
	f := newFakeReplica(t, "alpha")
	f.setReject(http.StatusTooManyRequests, "37", `{"error":"queue full (depth 64)"}`)
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	waitFor(t, "replica in ring", func() bool { return rt.members.Ring().Size() == 1 })

	resp, _ := submitJob(t, url, testSpec(0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "37" {
		t.Fatalf("Retry-After = %q, want the replica's \"37\"", got)
	}
	if got := resp.Header.Get(ReplicaHeader); got != "alpha" {
		t.Fatalf("%s = %q, want alpha", ReplicaHeader, got)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "queue full (depth 64)") {
		t.Fatalf("rejection body not forwarded verbatim: %s", raw)
	}
}

// TestRouterNoReplicas: with an empty ring the router is not ready and
// refuses submissions with a Retry-After.
func TestRouterNoReplicas(t *testing.T) {
	_, url := newTestRouter(t)
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatalf("GET readyz: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "no_ready_replicas") {
		t.Fatalf("readyz body lacks reason: %s", raw)
	}

	sresp, _ := submitJob(t, url, testSpec(0))
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit = %d, want 503", sresp.StatusCode)
	}
	if sresp.Header.Get("Retry-After") == "" {
		t.Fatal("empty-ring rejection lacks Retry-After")
	}
}

// TestRouterRehomesOnDeadReplica: SIGKILL equivalent — the owning
// replica's server vanishes mid-job; the router declares it dead,
// re-homes the job to the survivor, and the event stream records the
// hand-off with exactly one terminal event.
func TestRouterRehomesOnDeadReplica(t *testing.T) {
	rt, url := newTestRouter(t)
	fakes := map[string]*fakeReplica{
		"alpha": newFakeReplica(t, "alpha"),
		"beta":  newFakeReplica(t, "beta"),
	}
	for _, f := range fakes {
		f.mode.Store("stall") // nobody finishes until the test says so
		if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
			t.Fatalf("register %s = %d (%s)", f.name, code, body)
		}
	}
	waitFor(t, "both replicas in ring", func() bool { return rt.members.Ring().Size() == 2 })

	resp, sub := submitJob(t, url, testSpec(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	owner := resp.Header.Get(ReplicaHeader)
	victim := fakes[owner]
	var survivor *fakeReplica
	for name, f := range fakes {
		if name != owner {
			survivor = f
		}
	}

	victim.srv.Close() // the kill
	waitFor(t, "victim dead", func() bool { return rt.members.get(owner).stateNow() == MemberDead })
	survivor.mode.Store("done")

	st := waitRouted(t, url, sub.ID, serve.StateDone)
	if st.Replica != survivor.name {
		t.Fatalf("job finished on %q, want survivor %q", st.Replica, survivor.name)
	}
	if st.Rehomes < 1 {
		t.Fatalf("rehomes = %d, want >= 1", st.Rehomes)
	}
	if got := survivor.executed(); len(got) != 1 || got[0] != sub.Key {
		t.Fatalf("survivor executed %v, want exactly [%s]", got, sub.Key)
	}

	evs := readAllEvents(t, url, sub.ID)
	assertEventLog(t, evs, "rehomed", serve.StateDone)
}

// TestRouterRehomesOnUnexpectedCancel: a replica that cancels a job
// nobody asked it to cancel (it fenced or is draining) loses the job
// to a re-home; its not-ready reasons show up in cluster status.
func TestRouterRehomesOnUnexpectedCancel(t *testing.T) {
	rt, url := newTestRouter(t)
	fakes := map[string]*fakeReplica{
		"alpha": newFakeReplica(t, "alpha"),
		"beta":  newFakeReplica(t, "beta"),
	}
	for _, f := range fakes {
		f.mode.Store("stall")
		if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
			t.Fatalf("register %s = %d (%s)", f.name, code, body)
		}
	}
	waitFor(t, "both replicas in ring", func() bool { return rt.members.Ring().Size() == 2 })

	resp, sub := submitJob(t, url, testSpec(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	owner := resp.Header.Get(ReplicaHeader)
	victim := fakes[owner]
	var survivor *fakeReplica
	for name, f := range fakes {
		if name != owner {
			survivor = f
		}
	}

	// The victim goes unready (readyz 503 "shedding") and self-cancels
	// the job, as a fenced replica would. It must leave the ring before
	// the re-home picks an owner, or the job boomerangs back.
	victim.ready.Store(false)
	waitFor(t, "victim out of ring", func() bool { return rt.members.Ring().Size() == 1 })
	if got := rt.members.get(owner).stateNow(); got != MemberUnready {
		t.Fatalf("victim state = %q, want %q", got, MemberUnready)
	}
	survivor.mode.Store("done")
	victim.mode.Store("cancel")

	st := waitRouted(t, url, sub.ID, serve.StateDone)
	if st.Replica != survivor.name {
		t.Fatalf("job finished on %q, want survivor %q", st.Replica, survivor.name)
	}
	if st.Rehomes < 1 {
		t.Fatalf("rehomes = %d, want >= 1", st.Rehomes)
	}
	evs := readAllEvents(t, url, sub.ID)
	assertEventLog(t, evs, "rehomed", serve.StateDone)
}

// TestRouterClientCancelIsHonoured: a DELETE through the router stops
// the job — the replica's resulting "cancelled" terminal is accepted,
// not treated as a fence to re-home from.
func TestRouterClientCancelIsHonoured(t *testing.T) {
	rt, url := newTestRouter(t)
	f := newFakeReplica(t, "alpha")
	f.mode.Store("stall")
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	waitFor(t, "replica in ring", func() bool { return rt.members.Ring().Size() == 1 })

	resp, sub := submitJob(t, url, testSpec(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	f.mode.Store("cancel") // replica obliges, emits its cancelled terminal

	st := waitRouted(t, url, sub.ID, serve.StateCancelled)
	if st.Rehomes != 0 {
		t.Fatalf("client cancel triggered %d re-homes, want 0", st.Rehomes)
	}
}

// TestRouterReportsRunning: the router's GET /v1/jobs/{id} reads
// running once the replica's stream says so, before the job is done.
func TestRouterReportsRunning(t *testing.T) {
	rt, url := newTestRouter(t)
	f := newFakeReplica(t, "alpha")
	f.mode.Store("stall") // the stream stops after its running event
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	waitFor(t, "replica in ring", func() bool { return rt.members.Ring().Size() == 1 })

	resp, sub := submitJob(t, url, testSpec(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if st := waitRouted(t, url, sub.ID, serve.StateRunning); st.Replica != f.name {
		t.Fatalf("running on %q, want %q", st.Replica, f.name)
	}
	f.mode.Store("done")
	waitRouted(t, url, sub.ID, serve.StateDone)
}

// TestRoutedJobStateFollowsEpoch: a running event of the current epoch
// sets the routed job running, one of a finished epoch does not, and a
// new epoch starts queued for its replica.
func TestRoutedJobStateFollowsEpoch(t *testing.T) {
	j := newRoutedJob("r1", "k1", "f1", testSpec(0), time.Now())
	first, _ := j.beginEpoch(0)
	running := serve.Event{ID: 2, Type: string(serve.StateRunning)}
	j.mirror(first, running)
	if got := j.status(false).State; got != serve.StateRunning {
		t.Fatalf("after a running event: %q, want running", got)
	}
	second, ok := j.beginEpoch(first)
	if !ok {
		t.Fatal("beginEpoch lost on a non-terminal job")
	}
	if got := j.status(false).State; got != serve.StateQueued {
		t.Fatalf("after a re-home: %q, want queued", got)
	}
	j.mirror(first, running) // the old replica's stream, late
	if got := j.status(false).State; got != serve.StateQueued {
		t.Fatalf("after a stale epoch's running event: %q, want queued", got)
	}
	j.mirror(second, running)
	if got := j.status(false).State; got != serve.StateRunning {
		t.Fatalf("after the new replica's running event: %q, want running", got)
	}
}

// cancelRouted DELETEs a routed job through the router.
func cancelRouted(t *testing.T, routerURL, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, routerURL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
}

// TestRouterJobTableFull: with MaxJobs live jobs resident, a new unique
// spec is refused 429 with a Retry-After, while a duplicate still
// deduplicates; once one job is terminal it can be evicted and the new
// spec is accepted.
func TestRouterJobTableFull(t *testing.T) {
	rt, url := newTestRouterMaxJobs(t, 2)
	f := newFakeReplica(t, "alpha")
	f.mode.Store("stall")
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	waitFor(t, "replica in ring", func() bool { return rt.members.Ring().Size() == 1 })

	var live []serve.SubmitResponse
	for n := 0; n < 2; n++ {
		resp, sub := submitJob(t, url, testSpec(n))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", n, resp.StatusCode)
		}
		live = append(live, sub)
	}
	resp, _ := submitJob(t, url, testSpec(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third unique spec = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("table-full rejection lacks Retry-After")
	}
	if resp, sub := submitJob(t, url, testSpec(1)); resp.StatusCode != http.StatusAccepted || !sub.Deduped {
		t.Fatalf("duplicate into a full table = %d deduped=%v, want 202 deduped", resp.StatusCode, sub.Deduped)
	}

	cancelRouted(t, url, live[0].ID)
	waitRouted(t, url, live[0].ID, serve.StateCancelled)
	resp, sub := submitJob(t, url, testSpec(2))
	if resp.StatusCode != http.StatusAccepted || sub.Deduped {
		t.Fatalf("after a job ended: submit = %d deduped=%v, want fresh 202", resp.StatusCode, sub.Deduped)
	}
	if got := rt.jobs.Len(); got != 2 {
		t.Fatalf("table holds %d jobs, want 2 (the terminal one evicted)", got)
	}
}

// TestRouterResubmitAfterTerminal: a spec whose routed job failed or
// was cancelled is placed fresh when resubmitted — its key was released
// with the terminal transition — while a done spec deduplicates onto
// the cached result.
func TestRouterResubmitAfterTerminal(t *testing.T) {
	rt, url := newTestRouter(t)
	f := newFakeReplica(t, "alpha")
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	waitFor(t, "replica in ring", func() bool { return rt.members.Ring().Size() == 1 })

	cases := []struct {
		mode   string
		state  serve.State
		cancel bool
		dedup  bool
	}{
		{mode: "fail", state: serve.StateFailed},
		{mode: "stall", state: serve.StateCancelled, cancel: true},
		{mode: "done", state: serve.StateDone, dedup: true},
	}
	for n, tc := range cases {
		f.mode.Store(tc.mode)
		resp, first := submitJob(t, url, testSpec(n))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit = %d", tc.state, resp.StatusCode)
		}
		if tc.cancel {
			cancelRouted(t, url, first.ID)
		}
		waitRouted(t, url, first.ID, tc.state)

		f.mode.Store("stall")
		resp, again := submitJob(t, url, testSpec(n))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: resubmit = %d", tc.state, resp.StatusCode)
		}
		if again.Deduped != tc.dedup || (again.ID == first.ID) != tc.dedup {
			t.Fatalf("%s: resubmit deduped=%v id %s (first %s), want deduped=%v",
				tc.state, again.Deduped, again.ID, first.ID, tc.dedup)
		}
	}
}

// TestRetryFieldRejected: a job runs once, and a spec that still asks
// for a "retry" policy is refused with 400 at both doors — a replica's
// and the router's — instead of being silently ignored.
func TestRetryFieldRejected(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	replica := httptest.NewServer(s.Handler())
	t.Cleanup(replica.Close)
	_, router := newTestRouter(t)

	const body = `{"workloads":["mcf"],"geometry":"smoke","retry":{"max_attempts":3}}`
	for name, base := range map[string]string{"replica": replica.URL, "router": router} {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: POST /v1/jobs: %v", name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), `unknown field \"retry\"`) {
			t.Errorf("%s: spec with retry = %d %s, want 400 naming the field", name, resp.StatusCode, raw)
		}
	}
}

// TestRouterMembershipClassifiesReadyz: the probe loop translates a
// replica's /readyz answers into the membership state machine —
// "stopping" drains, other 503s are unready, transport failure kills,
// and recovery re-admits.
func TestRouterMembershipClassifiesReadyz(t *testing.T) {
	rt, url := newTestRouter(t)
	f := newFakeReplica(t, "alpha")
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	m := rt.members.get("alpha")
	waitFor(t, "ready", func() bool { return m.stateNow() == MemberReady })

	f.notReadyReason.Store("stopping")
	f.ready.Store(false)
	waitFor(t, "draining", func() bool { return m.stateNow() == MemberDraining })
	if rt.members.Ring().Size() != 0 {
		t.Fatal("draining member still in ring")
	}

	f.notReadyReason.Store("shedding")
	waitFor(t, "unready", func() bool { return m.stateNow() == MemberUnready })
	st := m.status()
	if len(st.Reasons) != 1 || st.Reasons[0] != "shedding" {
		t.Fatalf("reasons = %v, want [shedding]", st.Reasons)
	}

	f.ready.Store(true)
	waitFor(t, "ready again", func() bool { return m.stateNow() == MemberReady })
	waitFor(t, "back in ring", func() bool { return rt.members.Ring().Size() == 1 })
}

// assertEventLog checks a routed job's stream is gap-free (IDs 1..n
// contiguous), contains wantType, and ends with exactly one terminal
// event of the wanted state.
func assertEventLog(t *testing.T, evs []serve.Event, wantType string, terminal serve.State) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("empty event log")
	}
	sawWanted := false
	terminals := 0
	for i, ev := range evs {
		if ev.ID != i+1 {
			t.Fatalf("event %d has ID %d — gap in the stream: %+v", i, ev.ID, evs)
		}
		if ev.Type == wantType {
			sawWanted = true
		}
		switch ev.Type {
		case string(serve.StateDone), string(serve.StateFailed), string(serve.StateCancelled):
			terminals++
		}
	}
	if !sawWanted {
		t.Fatalf("no %q event in stream: %+v", wantType, evs)
	}
	if terminals != 1 {
		t.Fatalf("%d terminal events, want exactly 1: %+v", terminals, evs)
	}
	if last := evs[len(evs)-1]; last.Type != string(terminal) {
		t.Fatalf("last event is %q, want %q", last.Type, terminal)
	}
}
