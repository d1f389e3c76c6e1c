package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeSpec is a tiny job every test can afford: smoke geometry, one
// workload, two schemes, 2k refs per core.
func smokeSpec() Spec {
	return Spec{
		Workloads:   []string{"mcf"},
		Schemes:     []string{"base", "redhip"},
		Geometry:    "smoke",
		RefsPerCore: 2000,
	}
}

type testServer struct {
	t   *testing.T
	s   *Server
	web *httptest.Server
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	web := httptest.NewServer(s.Handler())
	t.Cleanup(web.Close)
	return &testServer{t: t, s: s, web: web}
}

// submit POSTs a spec and returns the decoded response; it fails the
// test unless the status code matches want.
func (ts *testServer) submit(spec Spec, want int) SubmitResponse {
	ts.t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.web.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		ts.t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		ts.t.Fatalf("POST /v1/jobs = %d, want %d (body %s)", resp.StatusCode, want, raw)
	}
	var out SubmitResponse
	if want == http.StatusAccepted {
		if err := json.Unmarshal(raw, &out); err != nil {
			ts.t.Fatalf("decode submit response: %v", err)
		}
	}
	return out
}

// submitRaw POSTs a spec and returns the raw response (caller closes).
func (ts *testServer) submitRaw(spec Spec) *http.Response {
	ts.t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.web.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		ts.t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp
}

// status GETs a job's status.
func (ts *testServer) status(id string) Status {
	ts.t.Helper()
	var st Status
	ts.getJSON("/v1/jobs/"+id, &st)
	return st
}

func (ts *testServer) getJSON(path string, v any) {
	ts.t.Helper()
	resp, err := http.Get(ts.web.URL + path)
	if err != nil {
		ts.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		ts.t.Fatalf("GET %s = %d (body %s)", path, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		ts.t.Fatalf("decode %s: %v", path, err)
	}
}

// waitState polls until the job reaches a terminal state, failing the
// test on timeout.
func (ts *testServer) waitState(id string, want State) Status {
	ts.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := ts.status(id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			ts.t.Fatalf("job %s reached %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.t.Fatalf("job %s did not reach %q in time", id, want)
	return Status{}
}

// metricValue scrapes /metrics and returns the value of an unlabelled
// metric, failing if the family is absent.
func (ts *testServer) metricValue(name string) float64 {
	ts.t.Helper()
	resp, err := http.Get(ts.web.URL + "/metrics")
	if err != nil {
		ts.t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindSubmatch(raw)
	if m == nil {
		ts.t.Fatalf("metric %s missing from /metrics:\n%s", name, raw)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		ts.t.Fatalf("metric %s value: %v", name, err)
	}
	return v
}

func TestSubmitPollComplete(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	sub := ts.submit(smokeSpec(), http.StatusAccepted)
	if sub.Deduped {
		t.Fatalf("first submission marked deduped")
	}
	st := ts.waitState(sub.ID, StateDone)
	if got, want := len(st.Results), 2; got != want {
		t.Fatalf("results = %d, want %d", got, want)
	}
	if st.Completed != st.Total || st.Total != 2 {
		t.Fatalf("progress %d/%d, want 2/2", st.Completed, st.Total)
	}
	for i, scheme := range []string{"base", "redhip"} {
		r := st.Results[i]
		if r.Workload != "mcf" || r.Scheme.String() != scheme {
			t.Fatalf("result %d = %s/%s, want mcf/%s", i, r.Workload, r.Scheme, scheme)
		}
		if r.Refs == 0 || r.Cycles == 0 {
			t.Fatalf("result %d empty: refs=%d cycles=%d", i, r.Refs, r.Cycles)
		}
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", st)
	}
	// The single-pass sweep pulls the materialised stream exactly once
	// for every scheme in the job: 1 miss, 0 replay hits.
	if misses := ts.metricValue("redhip_tracestore_misses_total"); misses != 1 {
		t.Fatalf("tracestore misses = %g, want 1", misses)
	}
	if hits := ts.metricValue("redhip_tracestore_hits_total"); hits != 0 {
		t.Fatalf("tracestore hits = %g, want 0 (one Get per single-pass sweep)", hits)
	}
	if v := ts.metricValue("redhip_serve_jobs_completed_total"); v != 1 {
		t.Fatalf("jobs_completed_total = %g, want 1", v)
	}
	if v := ts.metricValue("redhip_serve_runner_executions_total"); v != 1 {
		t.Fatalf("runner_executions_total = %g, want 1", v)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	cases := []Spec{
		{},                            // no workloads
		{Workloads: []string{"nope"}}, // unknown workload
		{Workloads: []string{"mcf"}, Schemes: []string{"warp"}},                                           // unknown scheme
		{Workloads: []string{"mcf"}, Geometry: "galactic"},                                                // unknown geometry
		{Workloads: []string{"mcf"}, Inclusion: "sideways"},                                               // unknown inclusion
		{Workloads: []string{"mcf"}, Schemes: []string{"cbf"}, Geometry: "smoke", Inclusion: "exclusive"}, // invalid sim.Config
	}
	for i, spec := range cases {
		resp := ts.submitRaw(spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Unknown top-level fields are rejected too.
	resp, err := http.Post(ts.web.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workloads":["mcf"],"frobnicate":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestJobNotFound(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	resp, err := http.Get(ts.web.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestListJobs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	sub := ts.submit(smokeSpec(), http.StatusAccepted)
	ts.waitState(sub.ID, StateDone)
	var jobs []Status
	ts.getJSON("/v1/jobs", &jobs)
	if len(jobs) != 1 || jobs[0].ID != sub.ID {
		t.Fatalf("list = %+v, want one entry %s", jobs, sub.ID)
	}
	if jobs[0].Results != nil {
		t.Fatalf("list must not embed results")
	}
}

func TestStoreEviction(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, MaxStoredJobs: 2})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		spec := smokeSpec()
		spec.Seed = seed
		spec.Schemes = []string{"base"}
		sub := ts.submit(spec, http.StatusAccepted)
		ts.waitState(sub.ID, StateDone)
		ids = append(ids, sub.ID)
	}
	resp, err := http.Get(ts.web.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still resolvable: %d", resp.StatusCode)
	}
	if n := ts.s.store.Len(); n != 2 {
		t.Fatalf("store size = %d, want 2", n)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	resp, err := http.Get(ts.web.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

// readSSE parses frames from an SSE response body until the stream ends
// or maxEvents frames arrive.
func readSSE(t *testing.T, body io.Reader, maxEvents int) []Event {
	t.Helper()
	br := bufio.NewReader(body)
	var events []Event
	for len(events) < maxEvents {
		ev, err := ReadSSE(br)
		if err != nil {
			break
		}
		events = append(events, ev)
	}
	return events
}
