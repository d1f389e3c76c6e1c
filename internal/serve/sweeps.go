package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"redhip/internal/sim"
	"redhip/internal/sweep"
)

// This file is the sweep orchestration layer: POST /v1/sweeps expands
// a parameter grid (internal/sweep) into child jobs and feeds them
// through the exact admission door direct submissions use — dedup,
// memory shedding and the bounded queue all apply to sweep fan-out.
// Per-sweep state, SSE progress (reusing EventLog) and the aggregated
// paper-figure artifacts live here; the grid math and the artifact
// tables stay in the pure internal/sweep package.

// sweepCounts buckets a sweep's children by lifecycle position.
// Pending children have not been submitted yet ("" state).
type sweepCounts struct {
	Pending   int `json:"pending"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// childRank orders child states so replayed/duplicate transitions can
// never move a child backwards: pending < queued < running < terminal.
func childRank(st State) int {
	switch st {
	case "":
		return 0
	case StateQueued:
		return 1
	case StateRunning:
		return 2
	}
	return 3
}

// sweepChildEvent is the payload of a "child" progress event.
type sweepChildEvent struct {
	Index   int         `json:"index"`
	Job     string      `json:"job_id,omitempty"`
	State   string      `json:"state"`
	Error   string      `json:"error,omitempty"`
	Deduped bool        `json:"deduped,omitempty"`
	Counts  sweepCounts `json:"counts"`
}

// sweepRun is one accepted sweep: the immutable expanded grid plus the
// orchestrator's mutable progress — child states, per-child results in
// grid order, the event log, and (terminally) the aggregated
// artifacts.
type sweepRun struct {
	// Immutable after creation.
	ID       string
	Grid     sweep.Grid
	Children []sweep.Child

	mu         sync.Mutex
	state      State              //redhip:guardedby mu
	errMsg     string             //redhip:guardedby mu
	childState []State            //redhip:guardedby mu // "" = pending
	childJob   []string           //redhip:guardedby mu // job ID once submitted
	childOwned []bool             //redhip:guardedby mu // true when this sweep created the job
	counts     sweepCounts        //redhip:guardedby mu
	results    [][]*sim.Result    //redhip:guardedby mu // by child index, set on child done
	artifacts  *sweep.Artifacts   //redhip:guardedby mu // non-nil only when state == done
	submitted  time.Time          //redhip:guardedby mu
	finished   time.Time          //redhip:guardedby mu
	cancel     context.CancelFunc //redhip:guardedby mu // orchestrator ctx, non-nil while running
	// cancelRequested bridges the DELETE-races-startup window: the
	// orchestrator installs its cancel func after launch and honours a
	// request that arrived first.
	cancelRequested bool //redhip:guardedby mu
	// log is bound to mu: appends happen under it, Subscribe takes it.
	log EventLog
}

func newSweepRun(id string, g sweep.Grid, children []sweep.Child, now time.Time) *sweepRun {
	sw := &sweepRun{
		ID:         id,
		Grid:       g,
		Children:   children,
		state:      StateRunning,
		childState: make([]State, len(children)),
		childJob:   make([]string, len(children)),
		childOwned: make([]bool, len(children)),
		counts:     sweepCounts{Pending: len(children)},
		results:    make([][]*sim.Result, len(children)),
		submitted:  now,
	}
	sw.log.Bind(&sw.mu)
	sw.mu.Lock()
	sw.log.AppendLocked("running", TerminalData{State: StateRunning}, false)
	sw.mu.Unlock()
	return sw
}

// bucketLocked returns the counts bucket a child state belongs to.
func (sw *sweepRun) bucketLocked(st State) *int {
	switch st {
	case "":
		return &sw.counts.Pending
	case StateQueued:
		return &sw.counts.Queued
	case StateRunning:
		return &sw.counts.Running
	case StateDone:
		return &sw.counts.Done
	case StateFailed:
		return &sw.counts.Failed
	}
	return &sw.counts.Cancelled
}

// transitionLocked advances one child's state, keeps the count buckets
// consistent and appends a "child" event. Stale transitions (replays,
// duplicate watcher deliveries) are dropped by rank.
func (sw *sweepRun) transitionLocked(idx int, st State, errMsg string, results []*sim.Result, deduped bool) bool {
	old := sw.childState[idx]
	if childRank(st) <= childRank(old) {
		return false
	}
	*sw.bucketLocked(old)--
	*sw.bucketLocked(st)++
	sw.childState[idx] = st
	if st == StateDone {
		sw.results[idx] = results
	}
	sw.log.AppendLocked("child", sweepChildEvent{
		Index:   idx,
		Job:     sw.childJob[idx],
		State:   string(st),
		Error:   errMsg,
		Deduped: deduped,
		Counts:  sw.counts,
	}, false)
	return true
}

// childSubmitted records a child's admission: its job binding, whether
// this sweep created the job (owned) or attached to existing work, and
// the advance to queued.
func (sw *sweepRun) childSubmitted(idx int, jobID string, owned bool) {
	sw.mu.Lock()
	sw.childJob[idx] = jobID
	sw.childOwned[idx] = owned
	sw.transitionLocked(idx, StateQueued, "", nil, !owned)
	sw.mu.Unlock()
}

// childTransition advances one child from its watcher. It reports
// whether the child just reached "failed" — the orchestrator's
// fail-fast trigger.
func (sw *sweepRun) childTransition(idx int, st State, errMsg string, results []*sim.Result) bool {
	sw.mu.Lock()
	advanced := sw.transitionLocked(idx, st, errMsg, results, false)
	sw.mu.Unlock()
	return advanced && st == StateFailed
}

// settle runs after every watcher returned: children never submitted
// are marked cancelled, and the final counts, cancellation flag and
// result set come back for the terminal verdict. The results slice is
// safe to read without the lock from here on — all writers are done.
func (sw *sweepRun) settle() (counts sweepCounts, cancelRequested bool, results [][]*sim.Result) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for i, st := range sw.childState {
		if st == "" {
			sw.transitionLocked(i, StateCancelled, "", nil, false)
		}
	}
	return sw.counts, sw.cancelRequested, sw.results
}

// finish applies the sweep's terminal transition exactly once; the
// state change, artifacts and terminal event land atomically so an SSE
// subscriber can never observe a terminal sweep without its event.
func (sw *sweepRun) finish(state State, errMsg string, arts *sweep.Artifacts, now time.Time) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.state.Terminal() {
		return false
	}
	sw.state = state
	sw.errMsg = errMsg
	sw.artifacts = arts
	sw.finished = now
	sw.cancel = nil
	sw.log.AppendLocked(string(state), TerminalData{State: state, Error: errMsg}, true)
	return true
}

// setCancel installs the orchestrator's cancel func, honouring a
// cancellation that raced sweep startup.
func (sw *sweepRun) setCancel(cancel context.CancelFunc) {
	sw.mu.Lock()
	requested := sw.cancelRequested
	if !sw.state.Terminal() {
		sw.cancel = cancel
	}
	sw.mu.Unlock()
	if requested {
		cancel()
	}
}

// requestCancel asks the sweep to stop and returns the IDs of child
// jobs this sweep created that are not yet terminal — the fan-out set
// the handler cancels. Jobs the sweep merely attached to by dedup are
// excluded here; shared jobs are additionally skipped by the handler.
func (sw *sweepRun) requestCancel() []string {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.state.Terminal() {
		return nil
	}
	sw.cancelRequested = true
	if sw.cancel != nil {
		sw.cancel()
	}
	var ids []string
	for i, st := range sw.childState {
		if sw.childOwned[i] && !st.Terminal() && sw.childJob[i] != "" {
			ids = append(ids, sw.childJob[i])
		}
	}
	return ids
}

// stateNow returns the sweep's current state.
func (sw *sweepRun) stateNow() State {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state
}

// Terminal reports whether the sweep reached an end state.
func (sw *sweepRun) Terminal() bool { return sw.stateNow().Terminal() }

// Attach is never called: sweeps live in an unkeyed table, so nothing
// deduplicates onto one.
func (sw *sweepRun) Attach() {}

// artifactsSnapshot returns the aggregated artifacts, nil until the
// sweep finishes done.
func (sw *sweepRun) artifactsSnapshot() *sweep.Artifacts {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.artifacts
}

// SweepChildStatus is one child's row in a sweep status response.
type SweepChildStatus struct {
	Index       int    `json:"index"`
	Workload    string `json:"workload"`
	Geometry    string `json:"geometry"`
	Cores       int    `json:"cores,omitempty"`
	RefsPerCore uint64 `json:"refs_per_core,omitempty"`
	Seed        uint64 `json:"seed"`
	Job         string `json:"job_id,omitempty"`
	State       string `json:"state"`
}

// SweepStatus is the JSON shape of GET /v1/sweeps/{id}.
type SweepStatus struct {
	ID             string             `json:"id"`
	State          State              `json:"state"`
	Error          string             `json:"error,omitempty"`
	Grid           sweep.Grid         `json:"grid"`
	Children       int                `json:"children"`
	Runs           int                `json:"runs"`
	Counts         sweepCounts        `json:"counts"`
	SubmittedAt    time.Time          `json:"submitted_at"`
	FinishedAt     *time.Time         `json:"finished_at,omitempty"`
	ArtifactsReady bool               `json:"artifacts_ready"`
	ChildJobs      []SweepChildStatus `json:"child_jobs,omitempty"`
}

// snapshot renders the sweep's current status; withChildren controls
// the (large, for big grids) per-child table.
func (sw *sweepRun) snapshot(withChildren bool) SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:             sw.ID,
		State:          sw.state,
		Error:          sw.errMsg,
		Grid:           sw.Grid,
		Children:       len(sw.Children),
		Runs:           len(sw.Children) * len(sw.Grid.Schemes),
		Counts:         sw.counts,
		SubmittedAt:    sw.submitted,
		ArtifactsReady: sw.artifacts != nil,
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		st.FinishedAt = &t
	}
	if withChildren {
		st.ChildJobs = make([]SweepChildStatus, len(sw.Children))
		for i, c := range sw.Children {
			state := string(sw.childState[i])
			if state == "" {
				state = "pending"
			}
			st.ChildJobs[i] = SweepChildStatus{
				Index:       c.Index,
				Workload:    c.Workload,
				Geometry:    c.Geometry,
				Cores:       c.Cores,
				RefsPerCore: c.RefsPerCore,
				Seed:        c.Seed,
				Job:         sw.childJob[i],
				State:       state,
			}
		}
	}
	return st
}

// --- orchestrator --------------------------------------------------------------

// childSpec builds the job spec for one grid cell: a single workload
// under the grid's full scheme list, so one engine pass replays one
// materialised trace under every scheme and per-job dedup shares cells
// across sweeps and direct submissions.
func childSpec(g sweep.Grid, c sweep.Child) (Spec, error) {
	spec := Spec{
		Workloads:         []string{c.Workload},
		Schemes:           g.Schemes,
		Geometry:          c.Geometry,
		Inclusion:         g.Inclusion,
		Seed:              c.Seed,
		RefsPerCore:       c.RefsPerCore,
		WarmupRefsPerCore: g.WarmupRefsPerCore,
		Cores:             c.Cores,
		Prefetch:          g.Prefetch,
		TimeoutSeconds:    g.TimeoutSeconds,
	}
	return spec.normalize()
}

// admitChild pushes one child spec through admitSpec, absorbing
// transient verdicts (full queue, memory shed, injected admission
// faults) by waiting out their Retry-After and retrying — a
// sweep is a patient client, so backpressure slows it down instead of
// failing it. Final verdicts (shutdown, a spec that can never fit the
// memory budget) and ctx cancellation return immediately.
func (s *Server) admitChild(ctx context.Context, spec Spec) (*Job, bool, error) {
	for {
		j, created, err := s.admitSpec(spec)
		if err == nil {
			return j, created, nil
		}
		delay := s.classifyAdmit(err).retryAfter
		if delay == 0 {
			return nil, false, err
		}
		// Clamp the wait: floor keeps a hot retry loop off the admission
		// lock, ceiling keeps the orchestrator responsive to freed slots
		// even when the estimator extrapolates from slow runs.
		if delay < 20*time.Millisecond {
			delay = 20 * time.Millisecond
		} else if delay > 2*time.Second {
			delay = 2 * time.Second
		}
		s.metrics.sweepAdmitWaits.Inc()
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// runSweep is the per-sweep orchestrator goroutine: submit children in
// grid order behind a MaxInFlight semaphore, watch each to a terminal
// state, then aggregate. A failed child trips fail-fast — submissions
// stop, in-flight children drain (their jobs may be shared with other
// clients, so they are not cancelled), unsubmitted children settle as
// cancelled.
func (s *Server) runSweep(sw *sweepRun) {
	defer s.sweepWG.Done()
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	sw.setCancel(cancel)

	sem := make(chan struct{}, sw.Grid.MaxInFlight)
	var watchers sync.WaitGroup
	var failOnce sync.Once
	failFast := func() { failOnce.Do(cancel) }

	for i, child := range sw.Children {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		spec, err := childSpec(sw.Grid, child)
		if err != nil {
			// Unreachable after Grid.Normalize, but a child that cannot
			// even form a spec fails the sweep cleanly.
			sw.childTransition(i, StateFailed, err.Error(), nil)
			failFast()
			<-sem
			break
		}
		j, created, err := s.admitChild(ctx, spec)
		if err != nil {
			<-sem
			if ctx.Err() != nil {
				break // cancelled: the child settles as cancelled, not failed
			}
			sw.childTransition(i, StateFailed, "admission failed: "+err.Error(), nil)
			failFast()
			break
		}
		s.metrics.sweepChildren.Inc()
		if !created {
			s.metrics.sweepChildDedup.Inc()
		}
		sw.childSubmitted(i, j.ID, created)
		watchers.Add(1)
		go func(idx int, j *Job) {
			defer watchers.Done()
			defer func() { <-sem }()
			s.watchChild(sw, idx, j, failFast)
		}(i, j)
	}
	watchers.Wait()
	s.finishSweep(sw)
}

// watchChild follows one child job to a terminal state through its
// event log (replay-then-live, the same machinery the SSE endpoint
// uses) and mirrors its transitions into the sweep. If the watcher is
// ever dropped as a slow subscriber it resubscribes; the rank filter
// makes replayed transitions idempotent.
func (s *Server) watchChild(sw *sweepRun, idx int, j *Job, failFast func()) {
	for {
		replay, live, unsub := j.log.Subscribe()
		for _, ev := range replay {
			if s.mirrorChildEvent(sw, idx, j, ev, failFast) {
				unsub()
				return
			}
		}
		for ev := range live {
			if s.mirrorChildEvent(sw, idx, j, ev, failFast) {
				unsub()
				return
			}
		}
		unsub()
		// The live channel closed without a terminal event: dropped as a
		// slow subscriber. Resolve from job state, resubscribing if the
		// job is still live.
		if st := j.stateNow(); st.Terminal() {
			snap := j.snapshot(true)
			sw.childTransition(idx, st, snap.Error, snap.Results)
			if st != StateDone {
				failFast()
			}
			return
		}
	}
}

// mirrorChildEvent folds one job event into the sweep; it reports
// whether the child reached a terminal state.
func (s *Server) mirrorChildEvent(sw *sweepRun, idx int, j *Job, ev Event, failFast func()) bool {
	switch ev.Type {
	case string(StateQueued), string(StateRunning):
		sw.childTransition(idx, State(ev.Type), "", nil)
		return false
	case string(StateDone):
		snap := j.snapshot(true)
		sw.childTransition(idx, StateDone, "", snap.Results)
		return true
	case string(StateFailed):
		snap := j.snapshot(false)
		sw.childTransition(idx, StateFailed, snap.Error, nil)
		failFast()
		return true
	case string(StateCancelled):
		// A child cancelled out from under the sweep (direct DELETE,
		// shutdown drain) means the sweep cannot complete either.
		sw.childTransition(idx, StateCancelled, "", nil)
		failFast()
		return true
	}
	return false // progress/panic events stay job-local
}

// finishSweep settles the terminal verdict once every watcher is done:
// all children done -> aggregate artifacts and finish done; otherwise
// cancelled (if requested) or failed. Aggregation runs outside every
// lock — it touches only immutable results.
func (s *Server) finishSweep(sw *sweepRun) {
	counts, cancelRequested, results := sw.settle()
	var state State
	var errMsg string
	var arts *sweep.Artifacts
	switch {
	case counts.Done == len(sw.Children):
		a, err := sweep.Aggregate(sw.Grid, sw.Children, results)
		if err != nil {
			state, errMsg = StateFailed, "aggregate: "+err.Error()
		} else {
			state, arts = StateDone, a
		}
	case cancelRequested:
		state, errMsg = StateCancelled, "cancelled"
	case counts.Failed > 0:
		state, errMsg = StateFailed, fmt.Sprintf("%d of %d children failed", counts.Failed, len(sw.Children))
	default:
		state, errMsg = StateCancelled, fmt.Sprintf("%d of %d children cancelled", counts.Cancelled, len(sw.Children))
	}
	if sw.finish(state, errMsg, arts, s.now()) {
		s.metrics.sweeps.Inc(state)
	}
}

// --- handlers ------------------------------------------------------------------

type sweepSubmitResponse struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Children  int    `json:"children"`
	Runs      int    `json:"runs"`
	Status    string `json:"status_url"`
	Events    string `json:"events_url"`
	Artifacts string `json:"artifacts_url"`
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var g sweep.Grid
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Sprintf("invalid sweep grid: %v", err))
		return
	}
	norm, err := g.Normalize()
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	if n := norm.Count(); n > maxSweepChildren {
		HTTPError(w, http.StatusBadRequest,
			fmt.Sprintf("sweep expands to %d children, cap is %d", n, maxSweepChildren))
		return
	}
	if s.stopping.Load() {
		s.metrics.rejectedShutdown.Inc()
		HTTPError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	sw, _, _ := s.sweeps.Resolve("", nil, func(id string) *sweepRun {
		return newSweepRun(id, norm, norm.Expand(), s.now())
	})
	s.metrics.sweepsSubmitted.Inc()
	s.sweepWG.Add(1)
	go s.runSweep(sw)

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/sweeps/"+sw.ID)
	w.WriteHeader(http.StatusAccepted)
	WriteJSON(w, sweepSubmitResponse{
		ID:        sw.ID,
		State:     sw.stateNow(),
		Children:  len(sw.Children),
		Runs:      norm.Runs(),
		Status:    "/v1/sweeps/" + sw.ID,
		Events:    "/v1/sweeps/" + sw.ID + "/events",
		Artifacts: "/v1/sweeps/" + sw.ID + "/artifacts",
	})
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	sweeps := s.sweeps.List()
	out := make([]SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.snapshot(false)
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, out)
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	sw := s.sweeps.Get(r.PathValue("id"))
	if sw == nil {
		HTTPError(w, http.StatusNotFound, "no such sweep")
		return
	}
	withChildren := r.URL.Query().Get("children") != "false"
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, sw.snapshot(withChildren))
}

// handleSweepCancel cancels the sweep and fans the cancellation out to
// the child jobs this sweep created — except jobs other submitters
// share (dedup attached them): cancelling those would yank results out
// from under an unrelated client.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw := s.sweeps.Get(r.PathValue("id"))
	if sw == nil {
		HTTPError(w, http.StatusNotFound, "no such sweep")
		return
	}
	for _, id := range sw.requestCancel() {
		if j := s.store.Get(id); j != nil && j.snapshot(false).Submissions == 1 {
			s.cancelJob(j, "sweep cancelled")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, sw.snapshot(false))
}

func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw := s.sweeps.Get(r.PathValue("id"))
	if sw == nil {
		HTTPError(w, http.StatusNotFound, "no such sweep")
		return
	}
	ServeEvents(w, r, &sw.log)
}

// handleSweepArtifacts serves the aggregated paper-figure tables:
// JSON by default, the rendered text block with ?format=text (the
// form the smoke script diffs for bit-identity).
func (s *Server) handleSweepArtifacts(w http.ResponseWriter, r *http.Request) {
	sw := s.sweeps.Get(r.PathValue("id"))
	if sw == nil {
		HTTPError(w, http.StatusNotFound, "no such sweep")
		return
	}
	arts := sw.artifactsSnapshot()
	if arts == nil {
		HTTPError(w, http.StatusConflict,
			fmt.Sprintf("sweep is %s: artifacts are available once every child is done", sw.stateNow()))
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, arts.Text)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, arts)
}
