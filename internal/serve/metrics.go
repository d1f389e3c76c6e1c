package serve

import (
	"io"
	"strconv"
	"sync"

	"redhip/internal/simstate"
	"redhip/internal/tracestore"
)

// runBuckets are the per-scheme run-latency histogram bounds in
// seconds. Smoke runs land in the sub-millisecond buckets, scaled
// sweeps in the middle, paper-geometry runs at the top.
var runBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// httpBuckets are the per-endpoint HTTP request-latency bounds in
// seconds: admission and status calls answer in microseconds to
// milliseconds; the top buckets absorb long-lived SSE streams, whose
// "latency" is the stream lifetime.
var httpBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// endpointMetrics is one HTTP endpoint's instrumentation: a request
// latency histogram, per-status-code counters, and a live in-flight
// gauge — the server-side numbers loadgen reports cross-check against.
type endpointMetrics struct {
	latency  Histogram
	codes    map[int]uint64
	inflight int64
}

// metrics is the server's instrumentation: monotone counters plus
// per-scheme run-latency histograms. Gauges (queue depth, in-flight,
// stored jobs) are read live from their owners at render time.
type metrics struct {
	counters         Counters // every counter below, in exposition order
	submitted        *Counter // POST /v1/jobs accepted (new or deduped)
	deduped          *Counter // submissions attached to an existing job
	rejectedFull     *Counter // 429s
	rejectedShutdown *Counter // 503s during drain
	jobs             Outcomes // jobs reaching done, failed or cancelled
	runnerStarts     *Counter // experiment.Runner executions launched, a job whose runs were all reused included
	executionsDone   *Counter // jobs whose sweep completed locally, reused runs or not (cluster no-double-execution invariant)
	leaseFences      *Counter // router-lease expiries that fenced non-terminal jobs
	workerPanics     *Counter // panics recovered in the worker stack
	shedMemory       *Counter // submissions shed by the byte budget
	sweepsSubmitted  *Counter // POST /v1/sweeps accepted
	sweeps           Outcomes // sweeps reaching done, failed or cancelled
	sweepChildren    *Counter // child jobs submitted by sweep orchestrators
	sweepChildDedup  *Counter // sweep children resolved by dedup instead of a fresh run
	sweepAdmitWaits  *Counter // child admissions retried after a transient rejection

	mu   sync.Mutex
	runs map[string]*Histogram       // per-scheme run wall time
	http map[string]*endpointMetrics // per-endpoint HTTP request metrics
}

func newMetrics() *metrics {
	m := &metrics{
		runs: make(map[string]*Histogram),
		http: make(map[string]*endpointMetrics),
	}
	c := &m.counters
	m.submitted = c.New("redhip_serve_jobs_submitted_total", "Accepted job submissions (new plus deduplicated).")
	m.deduped = c.New("redhip_serve_jobs_deduped_total", "Submissions attached to an existing job by dedup key.")
	m.rejectedFull = c.New("redhip_serve_jobs_rejected_total", "Submissions rejected with 429 because the queue was full.")
	m.rejectedShutdown = c.New("redhip_serve_jobs_shutdown_rejected_total", "Submissions rejected with 503 during shutdown.")
	m.jobs = Outcomes{
		Done:      c.New("redhip_serve_jobs_completed_total", "Jobs that finished successfully."),
		Failed:    c.New("redhip_serve_jobs_failed_total", "Jobs that finished with an error."),
		Cancelled: c.New("redhip_serve_jobs_cancelled_total", "Jobs cancelled while queued or running."),
	}
	m.runnerStarts = c.New("redhip_serve_runner_executions_total", "experiment.Runner executions launched (one per non-deduplicated job).")
	m.executionsDone = c.New("redhip_serve_executions_done_total", "Jobs whose sweep completed on this replica (summed across a cluster, equals unique specs executed).")
	m.leaseFences = c.New("redhip_serve_lease_fences_total", "Router-lease expiries that fenced (cancelled) this replica's non-terminal jobs.")
	m.workerPanics = c.New("redhip_serve_worker_panics_total", "Panics recovered in the worker execution stack.")
	m.shedMemory = c.New("redhip_serve_shed_memory_total", "Submissions shed by the trace-memory byte budget.")
	m.sweepsSubmitted = c.New("redhip_serve_sweeps_submitted_total", "POST /v1/sweeps accepted.")
	m.sweeps = Outcomes{
		Done:      c.New("redhip_serve_sweeps_completed_total", "Sweeps whose every child finished and whose artifacts aggregated."),
		Failed:    c.New("redhip_serve_sweeps_failed_total", "Sweeps that ended failed."),
		Cancelled: c.New("redhip_serve_sweeps_cancelled_total", "Sweeps cancelled by DELETE or shutdown."),
	}
	m.sweepChildren = c.New("redhip_serve_sweep_children_total", "Child jobs submitted through sweep orchestration.")
	m.sweepChildDedup = c.New("redhip_serve_sweep_children_deduped_total", "Sweep children resolved by dedup instead of a fresh execution.")
	m.sweepAdmitWaits = c.New("redhip_serve_sweep_admit_waits_total", "Sweep child admissions retried after a transient rejection (queue full, memory shed).")
	return m
}

// endpointLocked returns (creating on first use) the instrumentation
// slot for one endpoint label.
func (m *metrics) endpointLocked(endpoint string) *endpointMetrics {
	e := m.http[endpoint]
	if e == nil {
		e = &endpointMetrics{latency: Histogram{Buckets: httpBuckets}, codes: make(map[int]uint64)}
		m.http[endpoint] = e
	}
	return e
}

// httpStart marks a request in flight on its endpoint.
func (m *metrics) httpStart(endpoint string) {
	m.mu.Lock()
	m.endpointLocked(endpoint).inflight++
	m.mu.Unlock()
}

// httpDone records a finished request: latency, status code, and the
// in-flight decrement.
func (m *metrics) httpDone(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	e := m.endpointLocked(endpoint)
	e.inflight--
	e.latency.Observe(seconds)
	e.codes[code]++
	m.mu.Unlock()
}

// observeRun records one simulation run's wall time under its scheme.
func (m *metrics) observeRun(scheme string, seconds float64) {
	m.mu.Lock()
	h := m.runs[scheme]
	if h == nil {
		h = &Histogram{Buckets: runBuckets}
		m.runs[scheme] = h
	}
	h.Observe(seconds)
	m.mu.Unlock()
}

// avgRunSeconds returns the mean observed run latency, or 0 before the
// first observation. The Retry-After estimate derives from it.
func (m *metrics) avgRunSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	var n uint64
	for _, h := range m.runs {
		sum += h.sum
		n += h.count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// gauges are the live values the renderer reads from the server.
type gauges struct {
	QueueDepth     int
	InFlight       int
	StoredJobs     int
	StoredSweeps   int
	ActiveSweeps   int // sweeps not yet terminal
	MemoryReserved uint64
	MemoryBudget   uint64
	Ready          bool
}

// writeProm renders everything in Prometheus text exposition format.
// Families are emitted in a fixed order and label values sorted, so
// scrapes are diffable.
func (m *metrics) writeProm(w io.Writer, g gauges, ts tracestore.Stats, tsOK bool, ss simstate.StoreStats, ssOK bool) {
	p := PromWriter{W: w}
	p.Counters(m.counters)

	p.Gauge("redhip_serve_queue_depth", "Jobs admitted and waiting for a worker.", float64(g.QueueDepth))
	p.Gauge("redhip_serve_inflight", "Jobs currently executing.", float64(g.InFlight))
	p.Gauge("redhip_serve_jobs_stored", "Jobs resident in the store (all states).", float64(g.StoredJobs))
	p.Gauge("redhip_serve_sweeps_stored", "Sweeps resident in the store (all states).", float64(g.StoredSweeps))
	p.Gauge("redhip_serve_sweeps_active", "Sweeps currently orchestrating children.", float64(g.ActiveSweeps))
	p.Gauge("redhip_serve_memory_reserved_bytes", "Trace bytes reserved by admitted jobs.", float64(g.MemoryReserved))
	p.Gauge("redhip_serve_memory_budget_bytes", "Trace-memory admission budget (0 = shedding disabled).", float64(g.MemoryBudget))
	ready := 0.0
	if g.Ready {
		ready = 1.0
	}
	p.Gauge("redhip_serve_ready", "1 when the instance would answer /readyz with 200.", ready)

	m.mu.Lock()
	const hn = "redhip_serve_run_duration_seconds"
	p.Family(hn, "histogram", "Wall time of individual simulation runs by scheme.")
	for _, sc := range sortedKeys(m.runs) {
		p.Histogram(hn, m.runs[sc], "scheme", sc)
	}

	// Per-endpoint HTTP request metrics: latency histogram, status-code
	// counters and the live in-flight gauge. Loadgen's client-side
	// report cross-checks against these.
	endpoints := sortedKeys(m.http)
	const dn = "redhip_serve_http_request_duration_seconds"
	p.Family(dn, "histogram", "HTTP request latency by endpoint (SSE streams observe their whole lifetime).")
	for _, ep := range endpoints {
		p.Histogram(dn, &m.http[ep].latency, "endpoint", ep)
	}
	const rn = "redhip_serve_http_requests_total"
	p.Family(rn, "counter", "HTTP requests finished, by endpoint and status code.")
	for _, ep := range endpoints {
		codes := m.http[ep].codes
		for _, c := range sortedKeys(codes) {
			p.Sample(rn, int64(codes[c]), "endpoint", ep, "code", strconv.Itoa(c))
		}
	}
	const fn = "redhip_serve_http_inflight"
	p.Family(fn, "gauge", "HTTP requests currently being served, by endpoint.")
	for _, ep := range endpoints {
		p.Sample(fn, m.http[ep].inflight, "endpoint", ep)
	}
	m.mu.Unlock()

	if tsOK {
		p.Counter("redhip_tracestore_hits_total", "Trace store gets served from a resident entry.", ts.Hits)
		p.Counter("redhip_tracestore_misses_total", "Trace store materialisations started.", ts.Misses)
		p.Counter("redhip_tracestore_evictions_total", "Trace store LRU evictions.", ts.Evictions)
		p.Gauge("redhip_tracestore_entries", "Trace store resident entries.", float64(ts.Entries))
		p.Gauge("redhip_tracestore_bytes", "Trace store resident bytes.", float64(ts.Bytes))
		p.Gauge("redhip_tracestore_budget_bytes", "Trace store byte budget.", float64(ts.BudgetBytes))
		p.Gauge("redhip_tracestore_hit_ratio", "Fraction of trace store gets served from cache.", ts.HitRate())
		p.Counter("redhip_tracestore_materialize_nanos_total", "Cumulative nanoseconds spent materialising streams.", uint64(ts.MaterializeNanos))
		p.Counter("redhip_tracestore_materializations_total", "Trace store materialisations completed.", ts.Materializations)
	}

	if ssOK {
		p.Counter("redhip_simstate_hits_total", "Warm-state snapshot store gets served from a stored blob.", ss.Hits)
		p.Counter("redhip_simstate_misses_total", "Warm-state snapshot store gets that required a fresh warmup.", ss.Misses)
		p.Counter("redhip_simstate_puts_total", "Warm-state blobs stored after a warmup.", ss.Puts)
		p.Counter("redhip_simstate_evictions_total", "Warm-state snapshot store LRU evictions.", ss.Evictions)
		p.Counter("redhip_simstate_restores_total", "Engine restores branched from stored warm-state blobs.", ss.Restores)
		p.Counter("redhip_simstate_restore_nanos_total", "Cumulative decode+restore wall nanoseconds.", uint64(ss.RestoreNanos))
		p.Gauge("redhip_simstate_entries", "Warm-state blobs resident in the snapshot store.", float64(ss.Entries))
		p.Gauge("redhip_simstate_bytes", "Warm-state snapshot store resident bytes.", float64(ss.Bytes))
		p.Gauge("redhip_simstate_budget_bytes", "Warm-state snapshot store byte budget.", float64(ss.BudgetBytes))
		p.Gauge("redhip_simstate_hit_ratio", "Fraction of snapshot store gets served from a stored blob.", ss.HitRate())
	}
}
