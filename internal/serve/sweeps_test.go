package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"redhip/internal/sweep"
)

// smokeGrid is a small sweep every test can afford: two workloads x
// two seeds of the smoke geometry under two schemes = 4 cells, 8 runs.
func smokeGrid() sweep.Grid {
	return sweep.Grid{
		Workloads:   []string{"mcf", "milc"},
		Schemes:     []string{"base", "redhip"},
		Geometries:  []string{"smoke"},
		Seeds:       []uint64{1, 2},
		RefsPerCore: []uint64{2000},
	}
}

// submitGrid POSTs a grid to /v1/sweeps; see post.
func (ts *testServer) submitGrid(g any, want int) SubmitResponse {
	ts.t.Helper()
	return ts.post("/v1/sweeps", g, want)
}

// artifacts GETs a job's artifacts with the given query and returns the
// status code and body.
func (ts *testServer) artifacts(id, query string) (int, string) {
	ts.t.Helper()
	resp, err := http.Get(ts.web.URL + "/v1/jobs/" + id + "/artifacts" + query)
	if err != nil {
		ts.t.Fatalf("GET artifacts: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// artifactsText GETs a done grid job's rendered artifact block.
func (ts *testServer) artifactsText(id string) string {
	ts.t.Helper()
	code, body := ts.artifacts(id, "?format=text")
	if code != http.StatusOK {
		ts.t.Fatalf("GET artifacts = %d (body %s)", code, body)
	}
	return body
}

// gridArtifactsFresh runs g on a new server that has run nothing else
// and returns its artifact text.
func gridArtifactsFresh(t *testing.T, g sweep.Grid) string {
	t.Helper()
	ts := newTestServer(t, Options{Workers: 1})
	sub := ts.submitGrid(g, http.StatusAccepted)
	ts.waitState(sub.ID, StateDone)
	return ts.artifactsText(sub.ID)
}

func TestSweepEndToEnd(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	sub := ts.submitGrid(smokeGrid(), http.StatusAccepted)
	if sub.Deduped || !strings.HasPrefix(sub.ID, "job-") || sub.Status != "/v1/jobs/"+sub.ID {
		t.Fatalf("grid submission answered %+v, want a fresh job", sub)
	}

	st := ts.waitState(sub.ID, StateDone)
	if st.Spec != nil || st.Grid == nil || len(st.Grid.Seeds) != 2 {
		t.Fatalf("grid job status carries spec %+v, grid %+v", st.Spec, st.Grid)
	}
	if st.Total != 8 || st.Completed != 8 || len(st.Results) != 8 {
		t.Fatalf("grid job ran %d of %d runs with %d results, want 8", st.Completed, st.Total, len(st.Results))
	}
	// The job is listed beside plain jobs.
	var list []Status
	ts.getJSON("/v1/jobs", &list)
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("job list %+v, want the grid job", list)
	}

	// Artifact text renders one hit-rate table per scheme plus the
	// energy table, over both workloads.
	text := ts.artifactsText(sub.ID)
	for _, want := range []string{
		"sweep aggregate: 4 children, 8 runs",
		"Per-level hit rates (base)",
		"Per-level hit rates (redhip)",
		"Dynamic energy normalised to base",
		"mcf", "milc", "average",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("artifact text missing %q:\n%s", want, text)
		}
	}
	code, body := ts.artifacts(sub.ID, "")
	var arts sweep.Artifacts
	if code != http.StatusOK || json.Unmarshal([]byte(body), &arts) != nil || arts.Text != text {
		t.Fatalf("JSON artifacts = %d, text matches %v", code, arts.Text == text)
	}

	// A second identical grid dedups onto the job.
	again := ts.submitGrid(smokeGrid(), http.StatusAccepted)
	if !again.Deduped || again.ID != sub.ID {
		t.Fatalf("resubmitted grid answered %+v, want a dedup onto %s", again, sub.ID)
	}

	// A fresh server instance running the same grid must agree: the
	// artifacts derive only from deterministic simulation outputs.
	if fresh := gridArtifactsFresh(t, smokeGrid()); fresh != text {
		t.Fatalf("cross-server artifacts differ:\n--- server1\n%s\n--- server2\n%s", text, fresh)
	}
}

func TestSweepValidation(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	ts.submitGrid(sweep.Grid{}, http.StatusBadRequest)
	ts.submitGrid(sweep.Grid{Workloads: []string{"nope"}}, http.StatusBadRequest)
	// A cell that is no valid configuration fails at admission.
	ts.submitGrid(sweep.Grid{Workloads: []string{"mcf"}, Schemes: []string{"cbf"}, Inclusion: "exclusive"}, http.StatusBadRequest)
	// max_in_flight is no grid field, and unknown fields are rejected.
	ts.submitGrid(map[string]any{"workloads": []string{"mcf"}, "max_in_flight": 2}, http.StatusBadRequest)
	// 2 workloads x 5001 seeds = 10002 children > maxSweepChildren.
	over := smokeGrid()
	over.Seeds = nil
	for seed := uint64(1); seed <= 5001; seed++ {
		over.Seeds = append(over.Seeds, seed)
	}
	if n := 2 * len(over.Seeds); n <= maxSweepChildren {
		t.Fatalf("over-cap grid expands to %d children, not past the cap %d", n, maxSweepChildren)
	}
	ts.submitGrid(over, http.StatusBadRequest)
	if v := ts.metricValue("redhip_serve_jobs_submitted_total"); v != 0 {
		t.Fatalf("invalid grids admitted %g jobs", v)
	}

	if code, _ := ts.artifacts("job-000123", ""); code != http.StatusNotFound {
		t.Fatalf("artifacts of an unknown job = %d, want 404", code)
	}
	// A plain job has no grid to aggregate over.
	plain := ts.submit(specWithSeed(1), http.StatusAccepted)
	ts.waitState(plain.ID, StateDone)
	if code, _ := ts.artifacts(plain.ID, ""); code != http.StatusNotFound {
		t.Fatalf("artifacts of a plain job = %d, want 404", code)
	}
}

func TestSweepArtifactsUnavailableWhileRunning(t *testing.T) {
	release := make(chan struct{})
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16})
	ts.s.testHookJobStart = func(*Job) { <-release }
	defer close(release)

	sub := ts.submitGrid(smokeGrid(), http.StatusAccepted)
	if code, body := ts.artifacts(sub.ID, ""); code != http.StatusConflict {
		t.Fatalf("artifacts while running = %d (%s), want 409", code, body)
	}
}

func TestSweepCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16})
	ts.s.testHookJobStart = func(*Job) {
		started <- struct{}{}
		<-release
	}

	sub := ts.submitGrid(smokeGrid(), http.StatusAccepted)
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatalf("grid job never started")
	}
	ts.deleteJob(sub.ID)
	close(release)

	st := ts.waitState(sub.ID, StateCancelled)
	if st.Completed == st.Total {
		t.Fatalf("cancelled grid job completed all %d runs", st.Total)
	}
	if v := ts.metricValue("redhip_serve_jobs_cancelled_total"); v != 1 {
		t.Fatalf("jobs_cancelled_total = %g, want 1", v)
	}
}

// TestSweepSSEFanout is the replay-then-live contract under concurrent
// fan-out: subscribers attaching at arbitrary points during a running
// grid job must each observe the complete, gap-free event sequence from
// ID 1 through the terminal event, and all the same one. Run with
// -race this also hammers the EventLog's locking discipline from many
// goroutines.
func TestSweepSSEFanout(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	sub := ts.submitGrid(smokeGrid(), http.StatusAccepted)

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
			resp, err := http.Get(ts.web.URL + "/v1/jobs/" + sub.ID + "/events")
			if err != nil {
				t.Errorf("reader %d: %v", slot, err)
				return
			}
			defer resp.Body.Close()
			results[slot] = readSSE(t, resp.Body, 1024)
		}(i)
	}
	wg.Wait()
	ts.waitState(sub.ID, StateDone)

	for slot, events := range results {
		if len(events) == 0 {
			t.Fatalf("reader %d saw no events", slot)
		}
		for i, ev := range events {
			if ev.ID != i+1 {
				t.Fatalf("reader %d event %d has id %d (gap or reorder)", slot, i, ev.ID)
			}
		}
		if first, last := events[0].Type, events[len(events)-1].Type; first != "queued" || last != string(StateDone) {
			t.Fatalf("reader %d saw %q ... %q, want queued ... done", slot, first, last)
		}
		// Progress events count every run of every cell, in order.
		completed := 0
		for _, ev := range events {
			if ev.Type != "progress" {
				continue
			}
			var p progressData
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatalf("reader %d progress payload: %v", slot, err)
			}
			if p.Completed != completed+1 || p.Total != 8 {
				t.Fatalf("reader %d progress %d/%d after %d", slot, p.Completed, p.Total, completed)
			}
			completed = p.Completed
		}
		if completed != 8 {
			t.Fatalf("reader %d saw %d progress events, want 8", slot, completed)
		}
		for i, ev := range events {
			if want := results[0][i]; ev.Type != want.Type || !bytes.Equal(ev.Data, want.Data) {
				t.Fatalf("reader %d event %d = %s %s, reader 0 saw %s %s", slot, ev.ID, ev.Type, ev.Data, want.Type, want.Data)
			}
		}
		if len(events) != len(results[0]) {
			t.Fatalf("reader %d saw %d events, reader 0 saw %d", slot, len(events), len(results[0]))
		}
	}
}

// TestGridProgressNamesCell: a grid job's progress events name their
// cell, cell 0 included, so two cells that differ only in seed can be
// told apart; a plain job's events carry no cell field.
func TestGridProgressNamesCell(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	g := sweep.Grid{
		Workloads:   []string{"mcf"},
		Schemes:     []string{"base"},
		Geometries:  []string{"smoke"},
		Seeds:       []uint64{1, 2},
		RefsPerCore: []uint64{2000},
	}
	sub := ts.submitGrid(g, http.StatusAccepted)
	ts.waitState(sub.ID, StateDone)
	events := ts.progressEvents(sub.ID)
	if len(events) != 2 {
		t.Fatalf("two-cell grid emitted %d progress events, want 2", len(events))
	}
	for i, raw := range events {
		var p progressData
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatalf("decode progress %s: %v", raw, err)
		}
		if p.Cell == nil || *p.Cell != i || p.Workload != "mcf" || p.Scheme != "base" {
			t.Fatalf("progress event %d = %s, want mcf/base of cell %d", i, raw, i)
		}
	}

	st := ts.runDone(Spec{Workloads: []string{"mcf"}, Schemes: []string{"base"}, Geometry: "smoke", RefsPerCore: 2000, Seed: 3})
	for _, raw := range ts.progressEvents(st.ID) {
		if bytes.Contains(raw, []byte(`"cell"`)) {
			t.Fatalf("plain job progress event %s names a cell", raw)
		}
	}
}

// TestSweepShutdownCancelsQueuedGrid: a grid job queued behind a busy
// worker is cancelled by Shutdown like any queued job.
func TestSweepShutdownCancelsQueuedGrid(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16})
	ts.s.testHookJobStart = func(*Job) {
		entered <- struct{}{}
		<-release
	}

	running := ts.submit(specWithSeed(1), http.StatusAccepted)
	<-entered
	grid := ts.submitGrid(smokeGrid(), http.StatusAccepted)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		done <- ts.s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return ts.status(grid.ID).State.Terminal() })
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("Shutdown did not drain")
	}
	if st := ts.status(grid.ID); st.State != StateCancelled || st.Completed != 0 {
		t.Fatalf("queued grid job ended %q after %d runs, want cancelled before any", st.State, st.Completed)
	}
	ts.waitState(running.ID, StateDone)
}

// TestGridJobReusesDonePlainJobs: a grid job adopts the runs that done
// plain jobs already hold, cell by cell, and renders artifacts
// byte-identical to a fresh server's.
func TestGridJobReusesDonePlainJobs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	// Seed 1 of both workloads, as one plain two-workload job: half the
	// grid's runs.
	held := smokeGrid()
	ts.runDone(Spec{Workloads: held.Workloads, Schemes: held.Schemes, Geometry: "smoke", RefsPerCore: 2000, Seed: 1})

	sub := ts.submitGrid(smokeGrid(), http.StatusAccepted)
	st := ts.waitState(sub.ID, StateDone)
	if st.ReusedRuns != 4 {
		t.Fatalf("grid job reused %d runs, want the 4 the plain job holds", st.ReusedRuns)
	}
	if got, want := ts.artifactsText(sub.ID), gridArtifactsFresh(t, smokeGrid()); got != want {
		t.Fatalf("artifacts after reuse differ from a fresh server's:\n--- reuse\n%s\n--- fresh\n%s", got, want)
	}
}

// TestGridTimeoutBoundsEachCell: timeout_seconds bounds each cell, not
// the whole grid. Every cell is held for 40% of the timeout, so the
// grid outlives it while each cell stays inside; a cell held past it
// fails the job.
func TestGridTimeoutBoundsEachCell(t *testing.T) {
	const timeout = 250 * time.Millisecond
	g := smokeGrid()
	g.TimeoutSeconds = timeout.Seconds()

	ts := newTestServer(t, Options{Workers: 1})
	ts.s.testHookPassWorkers = func(*Job, int) { time.Sleep(timeout * 2 / 5) }
	start := time.Now()
	sub := ts.submitGrid(g, http.StatusAccepted)
	ts.waitState(sub.ID, StateDone)
	if took := time.Since(start); took < timeout {
		t.Fatalf("grid took %s, not past its per-cell timeout %s: the test proves nothing", took, timeout)
	}

	slow := newTestServer(t, Options{Workers: 1})
	slow.s.testHookPassWorkers = func(*Job, int) { time.Sleep(timeout * 3 / 2) }
	sub = slow.submitGrid(g, http.StatusAccepted)
	if st := slow.waitState(sub.ID, StateFailed); !strings.Contains(st.Error, "timeout") {
		t.Fatalf("slow cell failed with %q, want a timeout", st.Error)
	}
}

// TestGridKeyApartFromSpecKeys: a grid's dedup key never equals a spec
// key, even for a one-cell grid whose cell is that spec, and a
// resubmitted grid (timeout aside) dedups onto the job.
func TestGridKeyApartFromSpecKeys(t *testing.T) {
	one := sweep.Grid{Workloads: []string{"mcf"}, Schemes: []string{"base"}, Geometries: []string{"smoke"}, RefsPerCore: []uint64{2000}}
	wk, err := gridWork(one)
	if err != nil {
		t.Fatal(err)
	}
	if len(wk.cells) != 1 || wk.Key == wk.cells[0].key() {
		t.Fatalf("one-cell grid key %s equals its cell's spec key", wk.Key)
	}
	// The prefix alone keeps the keys apart: the same value hashed as a
	// spec would be and as a grid is.
	if hashKey("", wk.cells[0]) == hashKey("grid", wk.cells[0]) {
		t.Fatal("the grid prefix does not change the key")
	}

	ts := newTestServer(t, Options{Workers: 1})
	plain := ts.submit(wk.cells[0], http.StatusAccepted)
	grid := ts.submitGrid(one, http.StatusAccepted)
	if grid.Deduped || grid.ID == plain.ID || grid.Key == plain.Key {
		t.Fatalf("grid %+v dedups onto plain job %+v", grid, plain)
	}
	one.TimeoutSeconds = 60
	again := ts.submitGrid(one, http.StatusAccepted)
	if !again.Deduped || again.ID != grid.ID || again.Key != grid.Key {
		t.Fatalf("resubmitted grid %+v, want a dedup onto %+v", again, grid)
	}
	ts.waitState(grid.ID, StateDone)
}
