package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"redhip/internal/sim"
	"redhip/internal/sweep"
)

// State is a job's lifecycle position. Transitions are monotone:
// queued -> running -> {done, failed}; queued/running -> cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's progress stream, delivered over SSE as
//
//	id: <ID>
//	event: <Type>
//	data: <Data>
//
// The event log is append-only; late subscribers replay it from the
// start, so a progress event is never lost to subscription timing.
type Event struct {
	ID   int
	Type string // "queued", "running", "progress", "panic", "done", "failed", "cancelled"
	Data json.RawMessage
}

// progressData is the payload of a "progress" event.
type progressData struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// Cell is a grid job's index of the cell the run belongs to, in
	// expansion order; a plain job's events carry none.
	Cell      *int    `json:"cell,omitempty"`
	Completed int     `json:"completed"`
	Total     int     `json:"total"`
	Refs      uint64  `json:"refs,omitempty"`
	Cycles    uint64  `json:"cycles,omitempty"`
	Error     string  `json:"error,omitempty"`
	WallMS    float64 `json:"wall_ms,omitempty"`
	// Reused marks a run served from a done job's results instead of
	// simulated (Server.reuseDone); it carries no wall time.
	Reused bool `json:"reused,omitempty"`
}

// TerminalData is the payload of a state event ("queued", "running")
// and of a terminal one; the cluster router authors and parses the same
// shape.
type TerminalData struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// panicData is the payload of a "panic" event: the recovered value and
// the goroutine stack, so a post-mortem needs no server-side logs.
type panicData struct {
	Value string `json:"value"`
	Stack string `json:"stack"`
}

// work is what a job runs, fixed at admission: its dedup key and its
// cells, the normalised specs it simulates one after another. A plain
// job (POST /v1/jobs) is its spec's one cell; a grid job (POST
// /v1/sweeps) runs childSpec of every expanded grid child, in expansion
// order.
type work struct {
	Key   string
	Spec  *Spec       // a plain job's spec; nil for a grid job
	Grid  *sweep.Grid // a grid job's normalised grid; nil for a plain job
	cells []Spec
}

// specWork is the work of a plain job; norm must be normalised.
func specWork(norm Spec) work {
	return work{Key: norm.key(), Spec: &norm, cells: []Spec{norm}}
}

// runs returns the job's total run count over its cells.
func (w work) runs() int {
	n := 0
	for _, c := range w.cells {
		n += c.runs()
	}
	return n
}

// estimateTraceBytes is the trace footprint the job reserves at
// admission: its largest cell's, because cells run one at a time.
func (w work) estimateTraceBytes() uint64 {
	var est uint64
	for _, c := range w.cells {
		est = max(est, c.estimateTraceBytes())
	}
	return est
}

// Job is one admitted submission and everything it accretes: state,
// progress counters, the event log, subscribers, and (terminally)
// results or an error.
type Job struct {
	// Immutable after creation.
	ID string
	work
	// estBytes is the trace-footprint reservation made at admission;
	// finalize releases it exactly once on the terminal transition.
	estBytes uint64

	mu          sync.Mutex
	state       State              //redhip:guardedby mu
	err         string             //redhip:guardedby mu
	results     []*sim.Result      //redhip:guardedby mu // every cell's, in cell order
	completed   int                //redhip:guardedby mu // runs finished
	reused      int                //redhip:guardedby mu // of completed, runs adopted from done jobs
	total       int                //redhip:guardedby mu // runs planned
	submissions int                //redhip:guardedby mu // POSTs that resolved to this job (1 = no dedup)
	submitted   time.Time          //redhip:guardedby mu
	started     time.Time          //redhip:guardedby mu
	leaseGen    uint64             //redhip:guardedby mu // the server's lease generation at start
	finished    time.Time          //redhip:guardedby mu
	cancel      context.CancelFunc //redhip:guardedby mu // non-nil while running
	// cancelRequested is set when DELETE races the queued->running
	// hand-off: the worker that pops the job consults it in start and
	// abandons the run instead of executing a cancelled job.
	cancelRequested bool //redhip:guardedby mu
	// log is bound to mu: appends happen under it, Subscribe takes it.
	log EventLog
}

func newJob(id string, w work, now time.Time) *Job {
	j := &Job{
		ID:          id,
		work:        w,
		state:       StateQueued,
		total:       w.runs(),
		submissions: 1,
		submitted:   now,
	}
	j.log.Bind(&j.mu)
	j.publish("queued", TerminalData{State: StateQueued})
	return j
}

// publish appends an event and fans it out; callers must NOT hold j.mu.
func (j *Job) publish(typ string, payload any) {
	j.mu.Lock()
	j.publishLocked(typ, payload)
	j.mu.Unlock()
}

// publishLocked is publish with j.mu already held — terminal
// transitions use it so the state change and its event land atomically
// (a subscriber can never observe a terminal state whose event is
// missing from the log).
func (j *Job) publishLocked(typ string, payload any) {
	j.log.AppendLocked(typ, payload, j.state.Terminal())
}

// start transitions queued -> running, installing the cancel func and
// stamping the lease generation the job runs under. It returns false
// when the job was cancelled while queued.
func (j *Job) start(cancel context.CancelFunc, now time.Time, leaseGen uint64) bool {
	j.mu.Lock()
	if j.state != StateQueued || j.cancelRequested {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = now
	j.leaseGen = leaseGen
	j.cancel = cancel
	j.mu.Unlock()
	j.publish("running", TerminalData{State: StateRunning})
	return true
}

// publishPanic emits a "panic" event carrying the recovered value and
// its stack.
func (j *Job) publishPanic(v any, stack []byte) {
	j.publish("panic", panicData{Value: fmt.Sprint(v), Stack: string(stack)})
}

// progress records one finished run and emits a progress event.
func (j *Job) progress(p progressData) {
	j.mu.Lock()
	j.completed++
	if p.Reused {
		j.reused++
	}
	p.Completed = j.completed
	p.Total = j.total
	j.mu.Unlock()
	j.publish("progress", p)
}

// finish transitions to a terminal state and emits the terminal event.
// Later finish calls (a cancel racing completion, say) are no-ops; the
// first terminal state wins. It reports whether this call won.
func (j *Job) finish(state State, errMsg string, results []*sim.Result, now time.Time) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = errMsg
	j.results = results
	j.finished = now
	j.cancel = nil
	j.publishLocked(string(state), TerminalData{State: state, Error: errMsg})
	j.mu.Unlock()
	return true
}

// requestCancel asks the job to stop. A queued job reports
// wasQueued=true and the caller (Server.cancelJob) removes it from the
// queue and finishes it; a running job has its context cancelled and
// reaches "cancelled" through the worker. Terminal jobs are untouched.
func (j *Job) requestCancel() (wasQueued bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.cancelRequested = true
		return true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return false
}

// Attach records one more deduplicated submission.
func (j *Job) Attach() {
	j.mu.Lock()
	j.submissions++
	j.mu.Unlock()
}

// Status is the JSON shape of GET /v1/jobs/{id}. Exactly one of Spec
// and Grid is set.
type Status struct {
	ID          string        `json:"id"`
	Key         string        `json:"key"`
	State       State         `json:"state"`
	Error       string        `json:"error,omitempty"`
	Spec        *Spec         `json:"spec,omitempty"`
	Grid        *sweep.Grid   `json:"grid,omitempty"`
	Completed   int           `json:"completed"`
	Total       int           `json:"total"`
	ReusedRuns  int           `json:"reused_runs"` // of Completed, runs served from done jobs' results
	Submissions int           `json:"submissions"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Results     []*sim.Result `json:"results,omitempty"`
}

// snapshot renders the job's current status. withResults controls
// whether the (potentially large) result array is included.
func (j *Job) snapshot(withResults bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		Key:         j.Key,
		State:       j.state,
		Error:       j.err,
		Spec:        j.Spec,
		Grid:        j.Grid,
		Completed:   j.completed,
		Total:       j.total,
		ReusedRuns:  j.reused,
		Submissions: j.submissions,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if withResults && j.state == StateDone {
		st.Results = j.results
	}
	return st
}

// doneResults returns the job's results and whether it finished done.
// The slice and the results it holds are never written after the
// terminal transition, so callers may read them without the lock.
func (j *Job) doneResults() ([]*sim.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results, j.state == StateDone
}

// startedUnder returns the lease generation stamped by start.
func (j *Job) startedUnder() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.leaseGen
}

// stateNow returns the job's current state.
func (j *Job) stateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Terminal reports whether the job reached an end state.
func (j *Job) Terminal() bool { return j.stateNow().Terminal() }

// runningSince reports when the job started executing, if it is
// currently running.
func (j *Job) runningSince() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return time.Time{}, false
	}
	return j.started, true
}
