package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"redhip/internal/serve"
)

// ProbeHeader marks router→replica health probes; replicas treat a
// /readyz request carrying it as a lease renewal (serve/cluster.go).
const ProbeHeader = serve.RouterProbeHeader

// ReplicaHeader is the router's response header naming the replica a
// job is (or would be) placed on — the failover drill asserts on it,
// and loadgen accounts per-replica traffic with it.
const ReplicaHeader = "X-RedHiP-Replica"

// Options configure a Router. Zero values pick production-lean
// defaults; the failover drill shrinks every interval.
type Options struct {
	// Seed feeds the deterministic probe jitter (default 1).
	Seed uint64
	// ProbeInterval is the base health-check period per member (default
	// 1s); actual gaps are jittered into [0.75, 1.25) of it.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default ProbeInterval/2).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive probe transport failures that
	// declare a member dead (default 3). Dead declaration therefore
	// takes at least FailThreshold x 0.75 x ProbeInterval — replicas
	// must fence on a shorter lease, so the router advertises this
	// floor in every registration response (dead_after_ms) for them to
	// derive it from.
	FailThreshold int
	// SuccessThreshold is the consecutive probe passes a dead member
	// needs to rejoin the ring (default 2).
	SuccessThreshold int
	// Vnodes is the ring's virtual-node count per member (default
	// DefaultVnodes).
	Vnodes int
	// MaxJobs bounds resident routed jobs; terminal jobs evict oldest
	// first when the table is full (default 1024).
	MaxJobs int
	// Transport overrides the HTTP transport for every router→replica
	// request — probes, submissions, streams. The failover drill
	// injects one that can cut individual replicas off, simulating
	// kills and partitions in-process.
	Transport http.RoundTripper
}

func (o *Options) fill() error {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeInterval < 0 {
		return fmt.Errorf("cluster: ProbeInterval must be > 0, got %s", o.ProbeInterval)
	}
	if o.ProbeTimeout == 0 {
		o.ProbeTimeout = o.ProbeInterval / 2
	}
	if o.ProbeTimeout < 0 {
		return fmt.Errorf("cluster: ProbeTimeout must be > 0, got %s", o.ProbeTimeout)
	}
	if o.FailThreshold == 0 {
		o.FailThreshold = 3
	}
	if o.FailThreshold < 1 {
		return fmt.Errorf("cluster: FailThreshold must be >= 1, got %d", o.FailThreshold)
	}
	if o.SuccessThreshold == 0 {
		o.SuccessThreshold = 2
	}
	if o.SuccessThreshold < 1 {
		return fmt.Errorf("cluster: SuccessThreshold must be >= 1, got %d", o.SuccessThreshold)
	}
	if o.Vnodes == 0 {
		o.Vnodes = DefaultVnodes
	}
	if o.Vnodes < 1 {
		return fmt.Errorf("cluster: Vnodes must be >= 1, got %d", o.Vnodes)
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 1024
	}
	if o.MaxJobs < 1 {
		return fmt.Errorf("cluster: MaxJobs must be >= 1, got %d", o.MaxJobs)
	}
	if o.Transport == nil {
		o.Transport = http.DefaultTransport
	}
	return nil
}

// Router is the redhip-router core: registration, health-gated ring
// membership, consistent-hash job placement, SSE mirroring and
// re-homing, independent of the listener (cmd/redhip-router binds it
// to an http.Server; tests drive Handler directly).
type Router struct {
	opts      Options
	client    *http.Client // no global timeout: SSE streams live long
	members   *membership
	jobs      *serve.Table[*routedJob]
	metrics   *routerMetrics
	mux       *http.ServeMux
	baseCtx   context.Context
	baseStop  context.CancelFunc
	watcherWG sync.WaitGroup
}

// New builds a Router. Probers start as replicas register.
func New(opts Options) (*Router, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	rt := &Router{
		opts:     opts,
		client:   &http.Client{Transport: opts.Transport},
		jobs:     serve.NewTable[*routedJob]("r-%08d", opts.MaxJobs),
		metrics:  newRouterMetrics(),
		mux:      http.NewServeMux(),
		baseCtx:  ctx,
		baseStop: stop,
	}
	rt.members = newMembership(ctx, opts, rt.client)
	rt.members.onDead = rt.onMemberDead
	rt.routes()
	return rt, nil
}

// Handler returns the HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Shutdown stops probers and job watchers; it does not contact
// replicas (their jobs keep running — a router restart must not cancel
// cluster work).
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.baseStop()
	done := make(chan struct{})
	go func() {
		rt.watcherWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleList)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleGet)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleCancel)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleEvents)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/results", rt.handleResults)
	rt.mux.HandleFunc("POST /v1/cluster/register", rt.handleRegister)
	rt.mux.HandleFunc("GET /v1/cluster/status", rt.handleClusterStatus)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", serve.HandleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
}

// --- submission ---------------------------------------------------------------

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec serve.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		serve.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("invalid job spec: %v", err))
		return
	}
	// Normalise here with the same code the replica runs, so the key the
	// router dedups on equals the key the replica dedups on; the
	// normalised spec is what gets forwarded (and re-forwarded on a
	// re-home).
	norm, err := spec.Normalized()
	if err != nil {
		serve.HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := norm.CanonicalKey()
	family := familyKey(norm)

	// The router's table refuses rather than grow past MaxJobs live
	// jobs: its admit hook answers 429 when no resident job is terminal.
	admit := func() error {
		if rt.jobs.FullLocked() {
			return fmt.Errorf("cluster: job table full (%d live jobs)", rt.opts.MaxJobs)
		}
		return nil
	}
	j, created, err := rt.jobs.Resolve(key, admit, func(id string) *routedJob {
		return newRoutedJob(id, key, family, norm, time.Now())
	})
	if err != nil {
		rt.metrics.rejected.Inc()
		w.Header().Set("Retry-After", "5")
		serve.HTTPError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	rt.metrics.submitted.Inc()
	if !created {
		rt.metrics.deduped.Inc()
		rt.respondSubmit(w, j, true)
		return
	}

	epoch, ok := j.beginEpoch(0)
	if !ok {
		rt.respondSubmit(w, j, true) // cancelled underfoot; report as-is
		return
	}
	pl := rt.placeOnce(r.Context(), j, epoch)
	switch {
	case pl.member == "":
		rt.finalizeRouted(j, serve.StateCancelled, "not admitted: no ready replicas", nil)
		rt.metrics.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		serve.HTTPError(w, http.StatusServiceUnavailable, "no ready replicas")
	case pl.err != nil:
		rt.finalizeRouted(j, serve.StateCancelled, "not admitted: replica unreachable: "+pl.err.Error(), nil)
		w.Header().Set(ReplicaHeader, pl.member)
		w.Header().Set("Retry-After", "1")
		serve.HTTPError(w, http.StatusBadGateway, "replica "+pl.member+" unreachable: "+pl.err.Error())
	case pl.rej != nil:
		// The replica said no — forward its verdict verbatim, its
		// Retry-After included: never synthesize one the replica already
		// computed from its own queue state.
		rt.finalizeRouted(j, serve.StateCancelled, "not admitted: replica rejected", nil)
		rt.metrics.proxiedRejections.Inc()
		rt.forwardRejection(w, pl.member, pl.rej)
	default:
		// Placed, or the epoch moved on (a cancel raced in) and the client
		// gets the job's current status.
		rt.respondSubmit(w, j, !pl.placed)
	}
}

// familyKey is the ring placement key of a normalised spec: the
// canonical key with Schemes, Inclusion and Prefetch cleared. Those
// three choose how a trace is simulated, not which trace, so every
// variant of one trace lands on one replica. There its trace-store
// entry serves them all, and a variant whose runs a done job already
// holds is answered from that job's results instead of simulated
// (serve's run reuse). The trade-off: one family's load cannot spread
// across replicas.
func familyKey(norm serve.Spec) string {
	norm.Schemes, norm.Inclusion, norm.Prefetch = nil, "", false
	return norm.CanonicalKey()
}

func (rt *Router) respondSubmit(w http.ResponseWriter, j *routedJob, deduped bool) {
	st := j.status(false)
	if st.Replica != "" {
		w.Header().Set(ReplicaHeader, st.Replica)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	w.WriteHeader(http.StatusAccepted)
	serve.WriteJSON(w, serve.SubmitResponse{
		ID:      j.ID,
		Key:     j.Key,
		State:   st.State,
		Deduped: deduped,
		Status:  "/v1/jobs/" + j.ID,
		Events:  "/v1/jobs/" + j.ID + "/events",
	})
}

// replicaRejection is a replica's non-202 answer to a job submission,
// held for verbatim forwarding.
type replicaRejection struct {
	code       int
	retryAfter string
	body       []byte
}

// submitToReplica POSTs a normalised spec to one member. Exactly one
// of the three returns is set: the replica job ID on 202, a rejection
// to forward, or a transport error.
func (rt *Router) submitToReplica(ctx context.Context, m *Member, spec serve.Spec) (string, *replicaRejection, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.baseURLNow()+"/v1/jobs", strings.NewReader(string(payload)))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted {
		return "", &replicaRejection{
			code:       resp.StatusCode,
			retryAfter: resp.Header.Get("Retry-After"),
			body:       body,
		}, nil
	}
	var sr serve.SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return "", nil, fmt.Errorf("unparseable submit response: %w", err)
	}
	return sr.ID, nil, nil
}

func (rt *Router) forwardRejection(w http.ResponseWriter, replica string, rej *replicaRejection) {
	w.Header().Set(ReplicaHeader, replica)
	if rej.retryAfter != "" {
		w.Header().Set("Retry-After", rej.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rej.code)
	_, _ = w.Write(rej.body)
}

// --- status / events / results -------------------------------------------------

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := rt.jobs.List()
	out := make([]RoutedStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status(false)
	}
	w.Header().Set("Content-Type", "application/json")
	serve.WriteJSON(w, out)
}

func (rt *Router) handleGet(w http.ResponseWriter, r *http.Request) {
	j := rt.jobs.Get(r.PathValue("id"))
	if j == nil {
		serve.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status(r.URL.Query().Get("results") != "false")
	if st.Replica != "" {
		w.Header().Set(ReplicaHeader, st.Replica)
	}
	w.Header().Set("Content-Type", "application/json")
	serve.WriteJSON(w, st)
}

func (rt *Router) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := rt.jobs.Get(r.PathValue("id"))
	if j == nil {
		serve.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	member, rid := j.requestCancel()
	if member != "" && rid != "" {
		if m := rt.members.get(member); m != nil {
			// Best effort: an unreachable replica's jobs die with its
			// lease, and the cancelRequested flag stops any re-home.
			ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete, m.baseURLNow()+"/v1/jobs/"+rid, nil)
			if err == nil {
				if resp, derr := rt.client.Do(req); derr == nil {
					resp.Body.Close()
				}
			}
			cancel()
		}
	}
	st := j.status(false)
	if st.Replica != "" {
		w.Header().Set(ReplicaHeader, st.Replica)
	}
	w.Header().Set("Content-Type", "application/json")
	serve.WriteJSON(w, st)
}

func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := rt.jobs.Get(r.PathValue("id"))
	if j == nil {
		serve.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	serve.ServeEvents(w, r, &j.log)
}

// handleResults re-serves the executing replica's /results bytes
// verbatim — the drill diffs this output against a single-replica
// reference, so the router must not re-encode.
func (rt *Router) handleResults(w http.ResponseWriter, r *http.Request) {
	j := rt.jobs.Get(r.PathValue("id"))
	if j == nil {
		serve.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status(true)
	if st.State != serve.StateDone {
		serve.HTTPError(w, http.StatusConflict, fmt.Sprintf("job is %s, results exist only for done jobs", st.State))
		return
	}
	if st.Replica != "" {
		w.Header().Set(ReplicaHeader, st.Replica)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(st.Results)
}

// --- membership endpoints ------------------------------------------------------

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body serve.RegistrationBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		serve.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("invalid registration: %v", err))
		return
	}
	if body.Name == "" || body.BaseURL == "" || body.Version == "" {
		serve.HTTPError(w, http.StatusBadRequest, "registration requires name, base_url and version")
		return
	}
	m, err := rt.members.register(body.Name, strings.TrimSuffix(body.BaseURL, "/"), body.Version)
	if err != nil {
		serve.HTTPError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	serve.WriteJSON(w, registerResponse{
		MemberStatus:    m.status(),
		DeadAfterMillis: rt.deadAfterFloor().Milliseconds(),
	})
}

// registerResponse is the router's registration ack: the member row
// plus the dead-declaration floor — the minimum time from a replica's
// last successful probe to its dead declaration (FailThreshold
// consecutive failed probes at >= 0.75 x ProbeInterval spacing).
// Replicas derive (auto) or sanity-check (explicit) their fencing
// lease from it; keeping lease < floor guarantees a partitioned
// replica fences before the router re-homes its jobs, which is what
// makes re-homing safe against double execution.
type registerResponse struct {
	MemberStatus
	DeadAfterMillis int64 `json:"dead_after_ms"`
}

// deadAfterFloor computes the advertised minimum dead-declaration
// delay from the probe schedule.
func (rt *Router) deadAfterFloor() time.Duration {
	return time.Duration(rt.opts.FailThreshold) * rt.opts.ProbeInterval * 3 / 4
}

// clusterStatus is the JSON body of GET /v1/cluster/status.
type clusterStatus struct {
	RingSize int            `json:"ring_size"`
	Members  []MemberStatus `json:"members"`
}

func (rt *Router) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	members := rt.members.list()
	out := clusterStatus{RingSize: rt.members.Ring().Size()}
	for _, m := range members {
		out.Members = append(out.Members, m.status())
	}
	w.Header().Set("Content-Type", "application/json")
	serve.WriteJSON(w, out)
}

// handleReadyz: the router is ready while at least one replica is in
// the ring — with zero it can only reject submissions.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := serve.Readiness{Ready: rt.members.Ring().Size() > 0}
	if !resp.Ready {
		resp.Reasons = []string{"no_ready_replicas"}
	}
	serve.WriteReadiness(w, resp)
}

// --- metrics -------------------------------------------------------------------

// routerMetrics is the router's instrumentation: counters in exposition
// order; member/job gauges are read live at render time.
type routerMetrics struct {
	counters          serve.Counters
	submitted         *serve.Counter // POST /v1/jobs accepted (new or deduped)
	deduped           *serve.Counter // submissions attached to an existing routed job
	rejected          *serve.Counter // submissions the router itself refused
	proxiedRejections *serve.Counter // replica 4xx/5xx verdicts forwarded verbatim
	rehomes           *serve.Counter // jobs re-submitted after losing their replica
	watchReconnects   *serve.Counter // watcher stream reconnects (same replica)
	jobs              serve.Outcomes // routed jobs reaching done, failed or cancelled
}

func newRouterMetrics() *routerMetrics {
	m := &routerMetrics{}
	c := &m.counters
	m.submitted = c.New("redhip_router_jobs_submitted_total", "Accepted job submissions (new plus deduplicated).")
	m.deduped = c.New("redhip_router_jobs_deduped_total", "Submissions attached to an existing routed job by spec key.")
	m.rejected = c.New("redhip_router_jobs_rejected_total", "Submissions the router refused (no replicas, table full).")
	m.proxiedRejections = c.New("redhip_router_proxied_rejections_total", "Replica rejections (429/503/400) forwarded verbatim.")
	m.rehomes = c.New("redhip_router_rehomes_total", "Jobs re-submitted to a new owner after losing their replica.")
	m.watchReconnects = c.New("redhip_router_watch_reconnects_total", "Watcher SSE reconnects to the same replica.")
	m.jobs = serve.Outcomes{
		Done:      c.New("redhip_router_jobs_done_total", "Routed jobs that finished successfully."),
		Failed:    c.New("redhip_router_jobs_failed_total", "Routed jobs that finished with an error."),
		Cancelled: c.New("redhip_router_jobs_cancelled_total", "Routed jobs cancelled."),
	}
	return m
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := serve.PromWriter{W: w}
	p.Counters(rt.metrics.counters)

	byState := make(map[string]int64)
	for _, mem := range rt.members.list() {
		byState[string(mem.stateNow())]++
	}
	states := make([]string, 0, len(byState))
	for st := range byState {
		states = append(states, st)
	}
	sort.Strings(states)
	const mn = "redhip_router_members"
	p.Family(mn, "gauge", "Registered replicas by membership state.")
	for _, st := range states {
		p.Sample(mn, byState[st], "state", st)
	}
	p.Gauge("redhip_router_ring_size", "Replicas currently in the ring (ready).", float64(rt.members.Ring().Size()))
	p.Gauge("redhip_router_jobs_tracked", "Routed jobs resident in the table (all states).", float64(rt.jobs.Len()))
}
