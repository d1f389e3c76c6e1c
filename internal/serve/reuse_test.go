package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// resultsBytes GETs a done job's /results body.
func (ts *testServer) resultsBytes(id string) []byte {
	ts.t.Helper()
	resp, err := http.Get(ts.web.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		ts.t.Fatalf("GET results: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		ts.t.Fatalf("GET results = %d, %v", resp.StatusCode, err)
	}
	return raw
}

// progressEvents replays a terminal job's progress event payloads, in
// log order.
func (ts *testServer) progressEvents(id string) []json.RawMessage {
	ts.t.Helper()
	resp, err := http.Get(ts.web.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		ts.t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	var out []json.RawMessage
	for _, ev := range readSSE(ts.t, resp.Body, 1000) {
		if ev.Type == "progress" {
			out = append(out, ev.Data)
		}
	}
	return out
}

// runEvents replays a terminal job's progress events, keyed by
// "workload/scheme".
func (ts *testServer) runEvents(id string) map[string]progressData {
	ts.t.Helper()
	out := map[string]progressData{}
	for _, raw := range ts.progressEvents(id) {
		var p progressData
		if err := json.Unmarshal(raw, &p); err != nil {
			ts.t.Fatalf("decode progress %s: %v", raw, err)
		}
		out[p.Workload+"/"+p.Scheme] = p
	}
	return out
}

// runDone submits spec and waits for it to finish done.
func (ts *testServer) runDone(spec Spec) Status {
	ts.t.Helper()
	sub := ts.submit(spec, http.StatusAccepted)
	if sub.Deduped {
		ts.t.Fatalf("spec %+v deduplicated onto %s, want a fresh job", spec, sub.ID)
	}
	return ts.waitState(sub.ID, StateDone)
}

// freshResults runs spec on a new replica that has run nothing else.
func freshResults(t *testing.T, spec Spec) []byte {
	t.Helper()
	ts := newTestServer(t, Options{Workers: 1})
	return ts.resultsBytes(ts.runDone(spec).ID)
}

// TestRunReuseSubsetOfDoneJob: once a five-scheme job is done, a
// four-scheme subset of it builds no pass — the pass hook never fires —
// and answers /results with the bytes of a replica that never ran the
// superset. Every run's progress event says it was reused, without a
// wall time, and the status counts them.
func TestRunReuseSubsetOfDoneJob(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	superset := fiveSchemeSpec(3)
	superset.Workloads = []string{"milc", "mcf"}
	donor := ts.runDone(superset)

	// A client keeps encoding the donor's results while the subset
	// reads them: under -race this pins the cross-job read as safe.
	stop := make(chan struct{})
	reading := make(chan struct{})
	go func() {
		defer close(reading)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, err := http.Get(ts.web.URL + "/v1/jobs/" + donor.ID + "/results"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	log := recordPasses(ts, nil)
	subset := smokeSpec()
	subset.Seed = 3
	subset.Schemes = []string{"oracle", "base", "redhip", "phased"}
	st := ts.runDone(subset)
	close(stop)
	<-reading
	log.mu.Lock()
	_, passed := log.workers[st.ID]
	log.mu.Unlock()
	if passed {
		t.Fatal("a subset of a done job built a pass")
	}
	if st.ReusedRuns != 4 || st.Completed != 4 {
		t.Fatalf("reused %d of %d completed runs, want 4 of 4", st.ReusedRuns, st.Completed)
	}
	for run, p := range ts.runEvents(st.ID) {
		if !p.Reused || p.WallMS != 0 || p.Refs == 0 {
			t.Errorf("%s: progress %+v, want reused with refs and no wall time", run, p)
		}
	}
	if got, want := ts.resultsBytes(st.ID), freshResults(t, subset); !bytes.Equal(got, want) {
		t.Fatalf("reused results differ from a fresh replica's:\n%s\nvs\n%s", got, want)
	}
	if got := ts.s.ExecutionsDone(); got != 2 {
		t.Fatalf("ExecutionsDone = %d, want 2: a fully reused job still counts", got)
	}
}

// TestRunReuseNeedsEqualRun: a run is reused only when workload, seed
// and the whole sim.Config match. A spec that differs from the done job
// in any one of seed, refs, warmup, cores, geometry, inclusion or
// prefetch reuses nothing and simulates every run.
func TestRunReuseNeedsEqualRun(t *testing.T) {
	base := func() Spec {
		s := smokeSpec()
		s.Cores = 4
		return s
	}
	done := base()
	done.Schemes = nil // all five
	variants := map[string]func(*Spec){
		"seed":      func(s *Spec) { s.Seed = 2 },
		"refs":      func(s *Spec) { s.RefsPerCore = 2100 },
		"warmup":    func(s *Spec) { s.WarmupRefsPerCore = 500 },
		"cores":     func(s *Spec) { s.Cores = 2 },
		"geometry":  func(s *Spec) { s.Geometry = "scaled" },
		"inclusion": func(s *Spec) { s.Inclusion = "hybrid" },
		"prefetch":  func(s *Spec) { s.Prefetch = true },
	}
	ts := newTestServer(t, Options{Workers: 1})
	ts.runDone(done)
	log := recordPasses(ts, nil)
	for name, vary := range variants {
		spec := base()
		vary(&spec)
		st := ts.runDone(spec)
		if st.ReusedRuns != 0 {
			t.Errorf("%s: reused %d runs of a job with another %s", name, st.ReusedRuns, name)
		}
		log.seen(t, st.ID)
		for run, p := range ts.runEvents(st.ID) {
			if p.Reused {
				t.Errorf("%s: run %s reported reused", name, run)
			}
		}
	}
}

// TestRunReusePartialHit: a job whose runs a done job holds only in
// part simulates just the missing schemes — its pass is one scheme
// wide — and its results equal a fresh replica's.
func TestRunReusePartialHit(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	ts.runDone(smokeSpec()) // base and redhip

	log := recordPasses(ts, nil)
	spec := smokeSpec()
	spec.Schemes = []string{"base", "oracle", "redhip"}
	st := ts.runDone(spec)
	if w := log.seen(t, st.ID); w != 1 {
		t.Fatalf("partial hit ran a %d-worker pass, want 1 for the one missing scheme", w)
	}
	if st.ReusedRuns != 2 {
		t.Fatalf("reused %d runs, want 2", st.ReusedRuns)
	}
	evs := ts.runEvents(st.ID)
	for run, want := range map[string]bool{"mcf/base": true, "mcf/redhip": true, "mcf/oracle": false} {
		p, ok := evs[run]
		if !ok || p.Reused != want || (p.WallMS == 0) == !want {
			t.Errorf("%s: progress %+v (seen %v), want reused=%v", run, p, ok, want)
		}
	}
	if got, want := ts.resultsBytes(st.ID), freshResults(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("partly reused results differ from a fresh replica's:\n%s\nvs\n%s", got, want)
	}
}
