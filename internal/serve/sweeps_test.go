package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"redhip/internal/sweep"
)

// smokeGrid is a small sweep every test can afford: two workloads x
// two seeds of the smoke geometry under two schemes = 4 children,
// 8 runs.
func smokeGrid() sweep.Grid {
	return sweep.Grid{
		Workloads:   []string{"mcf", "milc"},
		Schemes:     []string{"base", "redhip"},
		Geometries:  []string{"smoke"},
		Seeds:       []uint64{1, 2},
		RefsPerCore: []uint64{2000},
	}
}

// submitSweep POSTs a grid and returns the decoded response, failing
// unless the status matches want.
func (ts *testServer) submitSweep(g sweep.Grid, want int) sweepSubmitResponse {
	ts.t.Helper()
	body, _ := json.Marshal(g)
	resp, err := http.Post(ts.web.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		ts.t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		ts.t.Fatalf("POST /v1/sweeps = %d, want %d (body %s)", resp.StatusCode, want, raw)
	}
	var out sweepSubmitResponse
	if want == http.StatusAccepted {
		if err := json.Unmarshal(raw, &out); err != nil {
			ts.t.Fatalf("decode sweep response: %v", err)
		}
	}
	return out
}

// sweepStatus GETs a sweep's status.
func (ts *testServer) sweepStatus(id string) SweepStatus {
	ts.t.Helper()
	var st SweepStatus
	ts.getJSON("/v1/sweeps/"+id, &st)
	return st
}

// waitSweep polls until the sweep reaches a terminal state.
func (ts *testServer) waitSweep(id string, want State) SweepStatus {
	ts.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := ts.sweepStatus(id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			ts.t.Fatalf("sweep %s reached %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.t.Fatalf("sweep %s did not reach %q in time", id, want)
	return SweepStatus{}
}

// sweepArtifactsText GETs the rendered artifact block.
func (ts *testServer) sweepArtifactsText(id string) string {
	ts.t.Helper()
	resp, err := http.Get(ts.web.URL + "/v1/sweeps/" + id + "/artifacts?format=text")
	if err != nil {
		ts.t.Fatalf("GET artifacts: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		ts.t.Fatalf("GET artifacts = %d (body %s)", resp.StatusCode, raw)
	}
	return string(raw)
}

func TestSweepEndToEnd(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	sub := ts.submitSweep(smokeGrid(), http.StatusAccepted)
	if sub.Children != 4 || sub.Runs != 8 {
		t.Fatalf("sweep sized %d children / %d runs, want 4 / 8", sub.Children, sub.Runs)
	}

	st := ts.waitSweep(sub.ID, StateDone)
	if st.Counts.Done != 4 || st.Counts.Failed != 0 {
		t.Fatalf("terminal counts %+v", st.Counts)
	}
	if !st.ArtifactsReady {
		t.Fatalf("done sweep has no artifacts")
	}
	if len(st.ChildJobs) != 4 {
		t.Fatalf("status lists %d children", len(st.ChildJobs))
	}
	for _, c := range st.ChildJobs {
		if c.State != string(StateDone) || c.Job == "" {
			t.Fatalf("child %+v not done with a job binding", c)
		}
		// Children went through the real admission path: their jobs are
		// first-class, resolvable by ID.
		if got := ts.status(c.Job); got.State != StateDone {
			t.Fatalf("child job %s is %q", c.Job, got.State)
		}
	}

	// Artifact text renders one hit-rate table per scheme plus the
	// energy table.
	text := ts.sweepArtifactsText(sub.ID)
	for _, want := range []string{
		"Per-level hit rates (base)",
		"Per-level hit rates (redhip)",
		"Dynamic energy normalised to base",
		"mcf", "milc", "average",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("artifact text missing %q:\n%s", want, text)
		}
	}

	// A second identical sweep dedups every child onto the cached jobs
	// and must render byte-identical artifacts.
	again := ts.submitSweep(smokeGrid(), http.StatusAccepted)
	ts.waitSweep(again.ID, StateDone)
	if text2 := ts.sweepArtifactsText(again.ID); text2 != text {
		t.Fatalf("re-run artifacts differ:\n--- first\n%s\n--- second\n%s", text, text2)
	}
	if v := ts.metricValue("redhip_serve_sweep_children_deduped_total"); v != 4 {
		t.Fatalf("sweep_children_deduped_total = %g, want 4", v)
	}
	if v := ts.metricValue("redhip_serve_sweeps_completed_total"); v != 2 {
		t.Fatalf("sweeps_completed_total = %g, want 2", v)
	}
	if v := ts.metricValue("redhip_serve_sweeps_active"); v != 0 {
		t.Fatalf("sweeps_active = %g, want 0", v)
	}

	// A fresh server instance running the same grid must also agree —
	// the artifacts derive only from deterministic simulation outputs.
	ts2 := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	sub2 := ts2.submitSweep(smokeGrid(), http.StatusAccepted)
	ts2.waitSweep(sub2.ID, StateDone)
	if text3 := ts2.sweepArtifactsText(sub2.ID); text3 != text {
		t.Fatalf("cross-server artifacts differ:\n--- server1\n%s\n--- server2\n%s", text, text3)
	}
}

func TestSweepValidation(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	ts.submitSweep(sweep.Grid{}, http.StatusBadRequest)
	ts.submitSweep(sweep.Grid{Workloads: []string{"nope"}}, http.StatusBadRequest)
	// 2 workloads x 5001 seeds = 10002 children > maxSweepChildren.
	over := smokeGrid()
	over.Seeds = nil
	for seed := uint64(1); seed <= 5001; seed++ {
		over.Seeds = append(over.Seeds, seed)
	}
	if n := 2 * len(over.Seeds); n <= maxSweepChildren {
		t.Fatalf("over-cap grid expands to %d children, not past the cap %d", n, maxSweepChildren)
	}
	ts.submitSweep(over, http.StatusBadRequest)

	resp, err := http.Get(ts.web.URL + "/v1/sweeps/sweep-000123")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown sweep = %d, want 404", resp.StatusCode)
	}
}

func TestSweepArtifactsUnavailableWhileRunning(t *testing.T) {
	release := make(chan struct{})
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16})
	ts.s.testHookJobStart = func(*Job) { <-release }
	defer close(release)

	g := smokeGrid()
	sub := ts.submitSweep(g, http.StatusAccepted)
	resp, err := http.Get(ts.web.URL + "/v1/sweeps/" + sub.ID + "/artifacts")
	if err != nil {
		t.Fatalf("GET artifacts: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("artifacts while running = %d, want 409", resp.StatusCode)
	}
}

func TestSweepCancelFansOut(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16})
	ts.s.testHookJobStart = func(*Job) {
		started <- struct{}{}
		<-release
	}

	sub := ts.submitSweep(smokeGrid(), http.StatusAccepted)
	// Wait until the first child is actually executing, so the cancel
	// exercises both the running-job path and the queued/pending paths.
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatalf("no child started")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.web.URL+"/v1/sweeps/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE sweep: %v", err)
	}
	resp.Body.Close()
	close(release)

	st := ts.waitSweep(sub.ID, StateCancelled)
	if st.Counts.Done == len(st.ChildJobs) {
		t.Fatalf("cancelled sweep completed all children: %+v", st.Counts)
	}
	if v := ts.metricValue("redhip_serve_sweeps_cancelled_total"); v != 1 {
		t.Fatalf("sweeps_cancelled_total = %g, want 1", v)
	}
}

// TestSweepSSEFanout is the replay-then-live contract under concurrent
// fan-out: subscribers attaching at arbitrary points during a running
// sweep must each observe the complete, gap-free event sequence from
// ID 1 through the terminal event. Run with -race this also hammers
// the EventLog's locking discipline from many goroutines.
func TestSweepSSEFanout(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	sub := ts.submitSweep(smokeGrid(), http.StatusAccepted)

	const readers = 8
	var wg sync.WaitGroup
	results := make([][]Event, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// Stagger attachment so some readers replay a prefix and
			// follow live, and late ones replay the whole closed log.
			time.Sleep(time.Duration(slot) * 20 * time.Millisecond)
			resp, err := http.Get(ts.web.URL + "/v1/sweeps/" + sub.ID + "/events")
			if err != nil {
				t.Errorf("reader %d: %v", slot, err)
				return
			}
			defer resp.Body.Close()
			results[slot] = readSSE(t, resp.Body, 1024)
		}(i)
	}
	wg.Wait()
	ts.waitSweep(sub.ID, StateDone)

	for slot, events := range results {
		if len(events) == 0 {
			t.Fatalf("reader %d saw no events", slot)
		}
		for i, ev := range events {
			if ev.ID != i+1 {
				t.Fatalf("reader %d event %d has id %d (gap or reorder)", slot, i, ev.ID)
			}
		}
		last := events[len(events)-1]
		if last.Type != string(StateDone) {
			t.Fatalf("reader %d ended on %q, want done", slot, last.Type)
		}
		if events[0].Type != "running" {
			t.Fatalf("reader %d first event %q, want running", slot, events[0].Type)
		}
		// Child events carry consistent monotone counts.
		var done int
		for _, ev := range events {
			if ev.Type != "child" {
				continue
			}
			var ce sweepChildEvent
			if err := json.Unmarshal([]byte(ev.Data), &ce); err != nil {
				t.Fatalf("reader %d child payload: %v", slot, err)
			}
			if ce.Counts.Done < done {
				t.Fatalf("reader %d saw done count regress: %d -> %d", slot, done, ce.Counts.Done)
			}
			done = ce.Counts.Done
		}
		if done != 4 {
			t.Fatalf("reader %d final done count %d, want 4", slot, done)
		}
	}
	// All readers observed the same total sequence length.
	for slot := 1; slot < readers; slot++ {
		if len(results[slot]) != len(results[0]) {
			t.Fatalf("reader %d saw %d events, reader 0 saw %d", slot, len(results[slot]), len(results[0]))
		}
	}
}

func TestSweepShutdownCancelsOrchestration(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16})
	ts.s.testHookJobStart = func(*Job) { <-release }

	sub := ts.submitSweep(smokeGrid(), http.StatusAccepted)
	// Let the orchestrator submit at least one child before draining.
	deadline := time.Now().Add(30 * time.Second)
	for ts.sweepStatus(sub.ID).Counts.Pending == 4 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		done <- ts.s.Shutdown(ctx)
	}()
	once.Do(func() { close(release) })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("Shutdown did not drain sweeps")
	}
	if st := ts.sweepStatus(sub.ID); !st.State.Terminal() {
		t.Fatalf("sweep still %q after shutdown", st.State)
	}
}
