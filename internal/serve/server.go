package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"redhip/internal/experiment"
	"redhip/internal/faultinject"
	"redhip/internal/sim"
	"redhip/internal/simstate"
	"redhip/internal/tracestore"
	"redhip/internal/version"
)

// maxStoredSweeps bounds resident terminal sweeps.
const maxStoredSweeps = 64

// maxSweepChildren caps the expanded size of one sweep grid. A grid
// that expands past it is rejected with 400 at admission.
const maxSweepChildren = 10_000

// DefaultTraceCacheBytes bounds a replica's trace store when
// Options.TraceCacheBytes is 0: 64 MiB, a quarter of the batch
// runner's tracestore.DefaultBudgetBytes. A job replays its own
// streams under every scheme of its pass, but a later job reads them
// again only when it repeats the workload, seed and reference count,
// so a replica fed unique jobs would otherwise keep a full 256 MiB of
// streams nobody reads, and the Go heap grows to about twice its live
// bytes. The streams that jobs do share fit with room to spare: the
// cluster benchmark's two replicas held 11 MiB together at the larger
// budget.
const DefaultTraceCacheBytes = 64 << 20

// Options configure a Server. Zero values pick production-lean
// defaults.
type Options struct {
	// Workers is the number of concurrent job executors (default:
	// GOMAXPROCS, min 1).
	Workers int
	// QueueDepth bounds admitted-but-not-started jobs (default 64).
	// A full queue rejects with 429 + Retry-After.
	QueueDepth int
	// TraceCacheBytes bounds the process-wide materialise-once trace
	// store shared by every job (default DefaultTraceCacheBytes).
	TraceCacheBytes uint64
	// SnapshotCacheBytes, when > 0, enables the process-wide warm-state
	// snapshot store: jobs with a warmup window warm each (config,
	// workload, seed) lineage once and branch measure runs from the
	// stored blob bit-identically.
	SnapshotCacheBytes uint64
	// MaxStoredJobs bounds resident terminal jobs — the LRU result
	// cache dedup hits resolve against (default 1024).
	MaxStoredJobs int
	// DefaultTimeout bounds a job's execution when its spec does not
	// (default 5m). MaxTimeout caps spec-requested timeouts (default
	// 30m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// IntraParallelism bounds the pass workers of each job's
	// single-pass multi-scheme simulation
	// (experiment.Options.IntraParallelism); a pass never runs more
	// workers than it has schemes or than GOMAXPROCS. Default 0 =
	// auto: GOMAXPROCS, so a job alone on the replica simulates on
	// every CPU. It is not divided across Workers: concurrent jobs'
	// passes share the CPUs through the Go scheduler, so a busy
	// replica still runs at most GOMAXPROCS goroutines at once and
	// each running job gets its part of the machine. Negative is a
	// configuration error.
	IntraParallelism int
	// MemoryBudgetBytes bounds the aggregate estimated trace footprint
	// of admitted jobs (default 1 GiB; -1 disables load shedding).
	MemoryBudgetBytes int64
	// Fault, when non-nil, overrides the process-global injector for
	// this server's injection points (serve.admit, serve.worker,
	// serve.sse) and its runners' experiment.run point. Inert unless
	// built with -tags faultinject.
	Fault *faultinject.Injector
	// RouterURL, when set, runs this instance as a cluster replica: it
	// registers with the redhip-router at this base URL and keeps
	// re-registering (registration is idempotent), and it arms the
	// router-lease watchdog — see internal/serve/cluster.go.
	RouterURL string
	// AdvertiseURL is the base URL the router should reach this replica
	// at. Required when RouterURL is set.
	AdvertiseURL string
	// ReplicaName identifies this replica in the ring (default:
	// AdvertiseURL). Ring placement hashes member names, so a restarted
	// replica keeping its name keeps its key ranges.
	ReplicaName string
	// LeaseTimeout is how long the replica runs without seeing a router
	// health probe before fencing itself — cancelling all non-terminal
	// jobs, because the router has likely declared it dead and re-homed
	// them. It must stay below the router's dead-declaration floor
	// (FailThreshold x 0.75 x ProbeInterval) or fencing cannot prevent
	// split-brain double execution. 0 = auto: start at 2s (below the
	// router defaults' 2.25s floor) and re-derive 3/4 of the floor the
	// router advertises in its registration ack. An explicit value is
	// honoured as-is, with a logged warning if it is not below the
	// advertised floor.
	LeaseTimeout time.Duration

	// leaseAuto records that LeaseTimeout was left zero, letting the
	// registration loop re-derive the lease from the router's ack.
	leaseAuto bool
}

func (o *Options) fill() error {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return fmt.Errorf("serve: Workers must be >= 1, got %d", o.Workers)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.QueueDepth < 1 {
		return fmt.Errorf("serve: QueueDepth must be >= 1, got %d", o.QueueDepth)
	}
	if o.MaxStoredJobs == 0 {
		o.MaxStoredJobs = 1024
	}
	if o.MaxStoredJobs < 1 {
		return fmt.Errorf("serve: MaxStoredJobs must be >= 1, got %d", o.MaxStoredJobs)
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 30 * time.Minute
	}
	if o.IntraParallelism < 0 {
		return fmt.Errorf("serve: IntraParallelism must be >= 0 (0 = auto), got %d", o.IntraParallelism)
	}
	if o.IntraParallelism == 0 {
		o.IntraParallelism = runtime.GOMAXPROCS(0)
	}
	if o.TraceCacheBytes == 0 {
		o.TraceCacheBytes = DefaultTraceCacheBytes
	}
	if o.MemoryBudgetBytes == 0 {
		o.MemoryBudgetBytes = 1 << 30
	}
	if o.RouterURL != "" {
		if o.AdvertiseURL == "" {
			return fmt.Errorf("serve: RouterURL requires AdvertiseURL")
		}
		if o.ReplicaName == "" {
			o.ReplicaName = o.AdvertiseURL
		}
		if o.LeaseTimeout == 0 {
			o.leaseAuto = true
			o.LeaseTimeout = 2 * time.Second
		}
		if o.LeaseTimeout < 0 {
			return fmt.Errorf("serve: LeaseTimeout must be > 0, got %s", o.LeaseTimeout)
		}
	}
	return nil
}

// Server is the redhip-serve core: admission, execution, status, SSE
// and metrics, independent of the listener (cmd/redhip-serve binds it
// to an http.Server; tests drive Handler directly).
type Server struct {
	opts     Options
	queue    *jobQueue
	store    *Table[*Job]
	sweeps   *Table[*sweepRun]
	traces   *tracestore.Store
	snaps    *simstate.Store // nil when SnapshotCacheBytes == 0
	metrics  *metrics
	shed     *loadShedder // nil when MemoryBudgetBytes < 0
	mux      *http.ServeMux
	inflight atomic.Int64
	stopping atomic.Bool
	baseCtx  context.Context
	baseStop context.CancelFunc
	workerWG sync.WaitGroup
	sweepWG  sync.WaitGroup

	// Cluster-replica state (inert unless Options.RouterURL is set):
	// the register/watchdog goroutines and the router-lease clock.
	// lastProbe holds the unixnano of the last router probe seen on
	// /readyz; 0 means "no lease held" (never probed, or just fenced).
	// leaseNanos is the effective lease duration — Options.LeaseTimeout
	// until the router's registration ack tightens it (auto mode).
	// leaseGen counts fences: a job records it when it starts, and one
	// whose generation moved by its commit point must not end done
	// (leaseLost).
	lastProbe     atomic.Int64
	leaseNanos    atomic.Int64
	leaseGen      atomic.Uint64
	clusterCancel context.CancelFunc
	clusterWG     sync.WaitGroup

	// now is the server's clock: job stamps, lease age, Retry-After
	// estimates and HTTP latency accounting all read it, and tests
	// inject a scripted one.
	now func() time.Time

	// testHookJobStart, when non-nil, runs in the worker goroutine
	// after a job transitions to running and before its runner starts —
	// tests use it to hold a worker busy deterministically.
	testHookJobStart func(*Job)
	// testHookPassWorkers, when non-nil, runs in execute before the
	// runner simulates, with the pass workers the job's widest pass
	// will run. It does not fire for a job whose every run was reused.
	testHookPassWorkers func(j *Job, workers int)
}

// New builds a Server and starts its worker pool.
func New(opts Options) (*Server, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		queue:    newJobQueue(opts.QueueDepth),
		store:    NewTable[*Job]("job-%06d", opts.MaxStoredJobs),
		sweeps:   NewTable[*sweepRun]("sweep-%06d", maxStoredSweeps),
		traces:   tracestore.New(opts.TraceCacheBytes),
		metrics:  newMetrics(),
		mux:      http.NewServeMux(),
		baseCtx:  ctx,
		baseStop: stop,
		now:      time.Now,
	}
	if opts.SnapshotCacheBytes > 0 {
		s.snaps = simstate.NewStore(opts.SnapshotCacheBytes)
	}
	if opts.MemoryBudgetBytes > 0 {
		s.shed = newLoadShedder(uint64(opts.MemoryBudgetBytes))
	}
	s.routes()
	s.workerWG.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	if opts.RouterURL != "" {
		s.startCluster()
	}
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.instrument("jobs", s.handleList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job", s.handleGet))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("job", s.handleCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("events", s.handleEvents))
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.instrument("results", s.handleResults))
	s.mux.HandleFunc("POST /v1/sweeps", s.instrument("sweeps", s.handleSweepSubmit))
	s.mux.HandleFunc("GET /v1/sweeps", s.instrument("sweeps", s.handleSweepList))
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.instrument("sweep", s.handleSweepGet))
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.instrument("sweep", s.handleSweepCancel))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.instrument("sweep_events", s.handleSweepEvents))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/artifacts", s.instrument("sweep", s.handleSweepArtifacts))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", HandleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
}

// instrument wraps a handler with per-endpoint HTTP metrics: request
// latency (for SSE endpoints, the stream lifetime), status-code
// counters, and the live in-flight gauge. The wrapper preserves
// http.Flusher so SSE streaming keeps working through it.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		s.metrics.httpStart(endpoint)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK // handler wrote nothing: implicit 200
		}
		s.metrics.httpDone(endpoint, code, s.now().Sub(start).Seconds())
	}
}

// statusWriter records the first status code written so the middleware
// can label its counters. It forwards Flush to the underlying writer,
// keeping SSE handlers streaming.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// fire evaluates a serve-layer injection point against the configured
// injector (Options.Fault, else the process-global one). Call sites
// guard on faultinject.Enabled so production builds pay nothing.
func (s *Server) fire(point string) error {
	in := s.opts.Fault
	if in == nil {
		in = faultinject.Active()
	}
	return in.Point(point)
}

// finalize applies a job's terminal transition exactly once: the
// terminal event (with the dedup key released in the same table-lock
// hold for non-reusable outcomes), the shed reservation release, and
// the terminal-state counter. It reports whether this call won the
// transition.
//
// A done transition is the commit point of a run, and it is fenced
// there: a job that did not hold the router lease for its whole run
// ends cancelled instead (leaseLost), so a replica resumed from a
// stop cannot count a job the router has re-homed, even when the job
// finishes before the first probe or watchdog tick after the resume.
func (s *Server) finalize(j *Job, state State, errMsg string, results []*sim.Result, now time.Time) bool {
	if state == StateDone && s.leaseLost(j.startedUnder()) {
		state, errMsg, results = StateCancelled, "router lease lost: job fenced at commit", nil
	}
	finish := func() bool { return j.finish(state, errMsg, results, now) }
	var won bool
	if state == StateDone {
		won = finish()
	} else {
		won = s.store.FinishRelease(j.Key, j, finish)
	}
	if won {
		s.shed.release(j.estBytes)
		s.metrics.jobs.Inc(state)
		if state == StateDone {
			// One completed local execution: the dedup store runs each
			// key's sweep once, so summing this counter across a cluster's
			// replicas equals the number of unique specs executed — the
			// failover drill's no-double-execution invariant. A job whose
			// runs were all reused from done jobs counts too: it is one
			// unique spec answered here. Cancelled and failed runs do not
			// count: they produced no results.
			s.metrics.executionsDone.Inc()
		}
	}
	return won
}

// leaseLost reports whether a job started under lease generation gen
// may no longer be owned by this replica: a fence ran since it started,
// or the lease is stale now and no probe or watchdog tick has seen it
// yet. The stale case fences here, with the watchdog's CompareAndSwap,
// so one expiry still fences exactly once. A replica that holds no
// lease (never probed, or no lease configured) loses nothing.
func (s *Server) leaseLost(gen uint64) bool {
	if s.leaseGen.Load() != gen {
		return true
	}
	lease := s.leaseNow()
	last := s.lastProbe.Load()
	if lease <= 0 || last == 0 || s.now().Sub(time.Unix(0, last)) <= lease {
		return false
	}
	if s.lastProbe.CompareAndSwap(last, 0) {
		s.fenceJobs()
	}
	return true
}

// Shutdown drains the server: new submissions are rejected, queued
// jobs are cancelled, and in-flight jobs run to completion (or until
// ctx expires, at which point their contexts are cancelled and the
// drain continues until they notice). It does not touch any listener —
// callers shut their http.Server down after this returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopping.Store(true)
	if s.clusterCancel != nil {
		// Stop re-registering and fencing first: a drain is deliberate,
		// not a lost lease.
		s.clusterCancel()
		s.clusterWG.Wait()
	}
	// Cancel active sweep orchestrators first: their pending submissions
	// stop, and their already-queued children fall to queue.close below.
	for _, sw := range s.sweeps.List() {
		sw.requestCancel()
	}
	for _, j := range s.queue.close() {
		s.finalize(j, StateCancelled, "server shutting down", nil, s.now())
	}
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		s.sweepWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline: cancel in-flight job contexts and keep
		// draining — workers exit as soon as their runner
		// returns.
		s.baseStop()
		<-done
		return ctx.Err()
	}
}

// --- workers -------------------------------------------------------------------

func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.safeRunJob(j)
	}
}

// safeRunJob is the worker's last-resort panic barrier: whatever
// escapes runJob (test hooks included) fails the job cleanly — stack
// in the event log, dedup key released, shed reservation returned —
// instead of killing the worker goroutine and leaking its slot
// forever.
func (s *Server) safeRunJob(j *Job) {
	defer func() {
		if v := recover(); v != nil {
			s.metrics.workerPanics.Inc()
			j.publishPanic(v, debug.Stack())
			s.finalize(j, StateFailed, fmt.Sprintf("worker panicked: %v", v), nil, s.now())
		}
	}()
	s.runJob(j)
}

// runJob executes one job end to end: running-state transition, one
// execution, terminal state via finalize. A panic anywhere below falls
// to safeRunJob's barrier and fails the job.
func (s *Server) runJob(j *Job) {
	timeout := s.opts.DefaultTimeout
	if t := j.Spec.TimeoutSeconds; t > 0 {
		timeout = time.Duration(t * float64(time.Second))
		if timeout > s.opts.MaxTimeout {
			timeout = s.opts.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	if !j.start(cancel, s.now(), s.leaseGen.Load()) {
		// Cancelled while queued and popped before the DELETE could
		// remove it from the queue: finish the cancellation here.
		s.finalize(j, StateCancelled, "cancelled while queued", nil, s.now())
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.testHookJobStart != nil {
		s.testHookJobStart(j)
	}

	results, err := s.execute(ctx, j)
	var pe *experiment.PanicError
	if errors.As(err, &pe) {
		s.metrics.workerPanics.Inc()
		j.publishPanic(pe.Value, pe.Stack)
	}
	now := s.now()
	switch {
	case err == nil:
		s.finalize(j, StateDone, "", results, now)
	case errors.Is(err, context.Canceled):
		s.finalize(j, StateCancelled, "cancelled", nil, now)
	case errors.Is(err, context.DeadlineExceeded):
		s.finalize(j, StateFailed, fmt.Sprintf("timeout after %s", timeout), nil, now)
	default:
		s.finalize(j, StateFailed, err.Error(), nil, now)
	}
}

// execute runs the job's full sweep through one experiment.Runner. The
// runner's OnRun hook forwards per-run completions to the job's event
// stream and the latency histograms. Runs a done job in the table
// already holds are filed into the runner first (reuseDone), so the
// sweep simulates only the rest, and a job whose every run hits builds
// no pass at all.
func (s *Server) execute(ctx context.Context, j *Job) ([]*sim.Result, error) {
	if faultinject.Enabled {
		if err := s.fire(faultinject.PointServeWorker); err != nil {
			return nil, err
		}
	}
	spec := j.Spec
	base, err := spec.configForScheme(spec.Schemes[0])
	if err != nil {
		return nil, err
	}
	schemes := make([]sim.Scheme, len(spec.Schemes))
	for i, name := range spec.Schemes {
		if schemes[i], err = sim.ParseScheme(name); err != nil {
			return nil, err
		}
	}
	// The count the runner and RunMulti would clamp to anyway, resolved
	// here so the test hook sees what runs.
	workers := min(s.opts.IntraParallelism, len(schemes), runtime.GOMAXPROCS(0))
	runner, err := experiment.NewRunner(experiment.Options{
		Base:             base,
		Seed:             spec.Seed,
		Workloads:        spec.Workloads,
		Parallelism:      1, // SchemeSweep runs one pass; IntraParallelism sizes it
		IntraParallelism: workers,
		Context:          ctx,
		TraceCache:       s.traces,
		SnapshotCache:    s.snaps,
		Fault:            s.opts.Fault,
		OnRun: func(u experiment.RunUpdate) {
			p := progressData{Workload: u.Workload, Scheme: u.Scheme.String(), Reused: u.Reused}
			if u.Err != nil {
				p.Error = u.Err.Error()
			} else {
				p.Refs = u.Result.Refs
				p.Cycles = u.Result.Cycles
				if !u.Reused {
					p.WallMS = float64(u.Result.Perf.WallNanos) / 1e6
					s.metrics.observeRun(u.Scheme.String(), float64(u.Result.Perf.WallNanos)/1e9)
				}
			}
			j.progress(p)
		},
	})
	if err != nil {
		return nil, err
	}
	s.metrics.runnerStarts.Inc()
	if widest := s.reuseDone(j, runner, base, schemes); widest > 0 && s.testHookPassWorkers != nil {
		s.testHookPassWorkers(j, min(workers, widest))
	}

	results := make([]*sim.Result, 0, spec.runs())
	for _, wl := range spec.Workloads {
		res, err := runner.SchemeSweep(wl, schemes)
		if err != nil {
			return nil, err
		}
		results = append(results, res...)
	}
	// A pass notices cancellation within a refill block; reused runs
	// never look, so the sweep answers for them here.
	return results, ctx.Err()
}

// runKey names one run of a job: its workload and full configuration.
// With the seed, which reuseDone matches first, it is the runner's memo
// key, compared as a whole struct.
type runKey struct {
	workload string
	cfg      sim.Config
}

// reuseDone files into runner every run of j that a done job in the
// table already holds: same workload, same seed and the same full
// sim.Config (configForScheme). The simulation is deterministic, so
// such a run is bit-identical to the one j would execute. Jobs the
// table has evicted are not consulted, and nothing is copied: j shares
// the done job's *sim.Result values, which no one writes after their
// job finished. It returns the widest pass left to simulate: the most
// schemes any one workload still misses.
func (s *Server) reuseDone(j *Job, runner *experiment.Runner, base sim.Config, schemes []sim.Scheme) (widest int) {
	spec := j.Spec
	want := make(map[runKey]bool, spec.runs())
	for _, wl := range spec.Workloads {
		for _, sc := range schemes {
			want[runKey{wl, base.WithScheme(sc)}] = true
		}
	}
	for _, other := range s.store.List() {
		if len(want) == 0 {
			break
		}
		if other == j || other.Spec.Seed != spec.Seed {
			continue
		}
		results, done := other.doneResults()
		if !done || len(results) != other.Spec.runs() {
			continue
		}
		for si, name := range other.Spec.Schemes {
			cfg, err := other.Spec.configForScheme(name)
			if err != nil {
				continue // unreachable: the spec was normalised at admission
			}
			for wi, wl := range other.Spec.Workloads {
				k := runKey{wl, cfg}
				if want[k] {
					delete(want, k)
					runner.Adopt(wl, results[wi*len(other.Spec.Schemes)+si])
				}
			}
		}
	}
	missing := make(map[string]int)
	for k := range want {
		missing[k.workload]++
		widest = max(widest, missing[k.workload])
	}
	return widest
}

// --- handlers ------------------------------------------------------------------

// SubmitResponse is the body of a 202 to POST /v1/jobs — from a
// replica and, in the same dialect, from the cluster router.
type SubmitResponse struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Deduped is true when this submission attached to an existing job
	// instead of creating one.
	Deduped bool   `json:"deduped"`
	Status  string `json:"status_url"`
	Events  string `json:"events_url"`
}

// admitFault wraps a serve.admit injected fault: a transient admission
// rejection (503 over HTTP, retried by sweep orchestrators).
type admitFault struct{ err error }

func (e *admitFault) Error() string { return e.err.Error() }

// admitSpec runs one normalised spec through the full admission path —
// shutdown gate, injected admission faults, dedup single-flight, the
// memory-shed verdict, and the bounded queue — and returns the resolved
// job. It is the single door both POST /v1/jobs and the sweep
// orchestrator go through, so every control applies to sweep fan-out
// exactly as it does to direct submissions. Errors are typed:
// ErrShuttingDown, *admitFault, *shedError and ErrQueueFull; metrics
// for each verdict are recorded here.
func (s *Server) admitSpec(norm Spec) (j *Job, created bool, err error) {
	if s.stopping.Load() {
		s.metrics.rejectedShutdown.Inc()
		return nil, false, ErrShuttingDown
	}
	if faultinject.Enabled {
		if ferr := s.fire(faultinject.PointServeAdmit); ferr != nil {
			return nil, false, &admitFault{err: ferr}
		}
	}

	// The shed verdict gates creation only (inside resolve's lock, after
	// the dedup check): attaching to existing work costs nothing, so it
	// is never shed.
	est := norm.estimateTraceBytes()
	admit := func() error { return s.shed.reserve(est) }
	j, created, err = s.store.Resolve(norm.key(), admit, func(id string) *Job {
		j := newJob(id, norm, s.now())
		j.estBytes = est // released exactly once, by finalize
		return j
	})
	if err != nil {
		var se *shedError
		if errors.As(err, &se) {
			s.metrics.shedMemory.Inc()
		}
		return nil, false, err
	}
	if created {
		if err := s.queue.push(j); err != nil {
			// Admission failed: unwind the registration (key and shed
			// reservation included) so the spec can be resubmitted. Not
			// via finalize — a never-admitted job is a rejection, not a
			// cancellation, in the metrics.
			unwind := func() bool { return j.finish(StateCancelled, "not admitted: "+err.Error(), nil, s.now()) }
			if s.store.FinishRelease(j.Key, j, unwind) {
				s.shed.release(j.estBytes)
			}
			if errors.Is(err, ErrShuttingDown) {
				s.metrics.rejectedShutdown.Inc()
			} else {
				s.metrics.rejectedFull.Inc()
			}
			return nil, false, err
		}
	} else {
		s.metrics.deduped.Inc()
	}
	s.metrics.submitted.Inc()
	return j, created, nil
}

// admitVerdict is how a client hears an admitSpec error: an HTTP
// status and message, and a Retry-After (0 = none). A verdict with a
// Retry-After is transient — the sweep orchestrator waits it out and
// retries; any other verdict is final.
type admitVerdict struct {
	code       int
	msg        string
	retryAfter time.Duration
}

// classifyAdmit gives each error admitSpec returns its verdict: POST
// /v1/jobs answers with it and the sweep orchestrator retries by it.
func (s *Server) classifyAdmit(err error) admitVerdict {
	var af *admitFault
	var se *shedError
	estimate := func() time.Duration { return time.Duration(s.retryAfterSeconds()) * time.Second }
	switch {
	case errors.Is(err, ErrShuttingDown):
		return admitVerdict{http.StatusServiceUnavailable, "server is shutting down", 0}
	case errors.As(err, &af):
		return admitVerdict{http.StatusServiceUnavailable, err.Error(), estimate()}
	case errors.As(err, &se) && se.Permanent:
		// No budget this server ever frees will fit the job:
		// resubmitting is futile, so the verdict is a client error.
		return admitVerdict{http.StatusBadRequest, err.Error(), 0}
	case errors.As(err, &se):
		return admitVerdict{http.StatusServiceUnavailable, err.Error(), estimate()}
	case errors.Is(err, ErrQueueFull):
		return admitVerdict{http.StatusTooManyRequests, "job queue full", estimate()}
	}
	return admitVerdict{http.StatusInternalServerError, err.Error(), 0}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Sprintf("invalid job spec: %v", err))
		return
	}
	norm, err := spec.normalize()
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}

	j, created, err := s.admitSpec(norm)
	if err != nil {
		v := s.classifyAdmit(err)
		if v.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(v.retryAfter)))
		}
		HTTPError(w, v.code, v.msg)
		return
	}

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	w.WriteHeader(http.StatusAccepted)
	WriteJSON(w, SubmitResponse{
		ID:      j.ID,
		Key:     j.Key,
		State:   j.stateNow(),
		Deduped: !created,
		Status:  "/v1/jobs/" + j.ID,
		Events:  "/v1/jobs/" + j.ID + "/events",
	})
}

// retryAfterSeconds estimates how long until a queue slot frees. The
// pending work a new submission waits behind has two parts: every
// queued job costs a full mean run latency, and every in-flight run
// costs only its *remaining* latency — mean minus how long it has
// already been executing, floored at zero (a run that has exceeded the
// mean is assumed about to finish). The earlier queue-depth-only
// estimate ignored the in-flight remainder and answered "1" on an idle
// queue even when every worker had just started a multi-second run.
// Clamped to [1, 60].
func (s *Server) retryAfterSeconds() int {
	avg := s.metrics.avgRunSeconds()
	if avg == 0 {
		return 1
	}
	now := s.now()
	var remaining float64
	for _, j := range s.store.List() {
		started, ok := j.runningSince()
		if !ok {
			continue
		}
		r := avg - now.Sub(started).Seconds()
		if r < 0 {
			r = 0
		} else if r > avg {
			r = avg
		}
		remaining += r
	}
	queued := float64(s.queue.depth()+1) * avg
	est := math.Ceil((queued + remaining) / float64(s.opts.Workers))
	if est < 1 {
		return 1
	}
	if est > 60 {
		return 60
	}
	return int(est)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.store.Get(r.PathValue("id"))
	if j == nil {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	withResults := r.URL.Query().Get("results") != "false"
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, j.snapshot(withResults))
}

// handleResults answers GET /v1/jobs/{id}/results: the bare result
// array of a done job, nothing else. The cluster router caches these
// bytes and re-serves them verbatim, so a client comparing results
// across replicas (the failover drill's bit-identity check) diffs this
// endpoint's output directly. 409 before the job is done — an absent
// result and an empty result must not look alike.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.store.Get(r.PathValue("id"))
	if j == nil {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.snapshot(true)
	if st.State != StateDone {
		HTTPError(w, http.StatusConflict, fmt.Sprintf("job is %s, results exist only for done jobs", st.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, st.Results)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.List()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot(false)
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.store.Get(r.PathValue("id"))
	if j == nil {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	s.cancelJob(j, "cancelled while queued")
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, j.snapshot(false))
}

// cancelJob asks j to stop. A queued job leaves the queue and finishes
// cancelled here with reason — its slot is free the moment remove
// returns; a running job has its context cancelled and its worker
// finalizes it.
func (s *Server) cancelJob(j *Job, reason string) {
	if j.requestCancel() && s.queue.remove(j) {
		s.finalize(j, StateCancelled, reason, nil, s.now())
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.store.Get(r.PathValue("id"))
	if j == nil {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	if faultinject.Enabled {
		if ferr := s.fire(faultinject.PointServeSSE); ferr != nil {
			HTTPError(w, http.StatusServiceUnavailable, ferr.Error())
			return
		}
	}
	ServeEvents(w, r, &j.log)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reserved, budget := s.shed.usage()
	sweeps := s.sweeps.List()
	active := 0
	for _, sw := range sweeps {
		if !sw.Terminal() {
			active++
		}
	}
	g := gauges{
		QueueDepth:     s.queue.depth(),
		InFlight:       int(s.inflight.Load()),
		StoredJobs:     s.store.Len(),
		StoredSweeps:   len(sweeps),
		ActiveSweeps:   active,
		MemoryReserved: reserved,
		MemoryBudget:   budget,
		Ready:          s.readiness().Ready,
	}
	var ss simstate.StoreStats
	if s.snaps != nil {
		ss = s.snaps.Stats()
	}
	s.metrics.writeProm(w, g, s.traces.Stats(), true, ss, s.snaps != nil)
}

// healthResponse is the JSON body of GET /healthz.
type healthResponse struct {
	Status  string `json:"status"`
	Version string `json:"version"`
}

// HandleHealthz is the liveness probe of replicas and the router: 200
// as long as the process can serve HTTP at all, shutdown drain included
// — restarting a draining process loses in-flight work for no gain.
// Whether the instance should receive NEW traffic is /readyz's
// question. The payload names the build (module version + VCS
// revision) so a fleet's versions are scrapeable.
func HandleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, healthResponse{Status: "ok", Version: version.String()})
}

// ReasonStopping is the /readyz reason of a draining instance: stop
// routing new work to it, let its in-flight jobs finish.
const ReasonStopping = "stopping"

// Readiness is the JSON body of GET /readyz on replicas and the router.
// Reasons is the machine-readable vocabulary the cluster router keys
// its membership state machine on: ReasonStopping means drain,
// "shedding" means back off but stay — neither means dead. A router
// with an empty ring reports "no_ready_replicas".
type Readiness struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// WriteReadiness answers a /readyz request with r: 200 when ready, 503
// otherwise.
func WriteReadiness(w http.ResponseWriter, r Readiness) {
	code := http.StatusOK
	if !r.Ready {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	WriteJSON(w, r)
}

func (s *Server) readiness() Readiness {
	var r Readiness
	if s.stopping.Load() {
		r.Reasons = append(r.Reasons, ReasonStopping)
	}
	if s.shed.active() {
		r.Reasons = append(r.Reasons, "shedding")
	}
	r.Ready = len(r.Reasons) == 0
	return r
}

// handleReadyz is the readiness probe: it flips to 503 while the
// instance is draining or the memory shedder is actively denying
// admissions — exactly the windows in which a load balancer should
// route new submissions elsewhere.
//
// A probe carrying RouterProbeHeader is the cluster router checking on
// this replica; seeing one renews the router lease (cluster.go) —
// answering the probe and holding the lease are deliberately the same
// signal, so the router's liveness view and the replica's cannot drift.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(RouterProbeHeader) != "" {
		s.renewLease()
	}
	WriteReadiness(w, s.readiness())
}

// ceilSeconds rounds a duration up to whole seconds, minimum 1 — the
// only granularity Retry-After speaks.
func ceilSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// --- small helpers -------------------------------------------------------------

type errorBody struct {
	Error string `json:"error"`
}

// HTTPError writes the JSON error body every non-2xx answer carries.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	WriteJSON(w, errorBody{Error: msg})
}

// WriteJSON writes v as indented JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone is the only failure; nothing to do
}
