package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"redhip/internal/cluster"
	"redhip/internal/experiment"
	"redhip/internal/loadgen"
	"redhip/internal/serve"
	"redhip/internal/sim"
	"redhip/internal/workload"
)

// The serving workloads drive the HTTP service open loop: arrival
// times come from loadgen.BuildSchedule, and one process sends them
// over two connections (one for submissions, one for reads), timing
// every request from when it was due.
const (
	// serveRate is the serve workload's Poisson arrival rate per
	// second; 1 in 4 arrivals is a read. Every submission is a unique
	// smoke spec of serveRefsPerCore references per core. A window's
	// jobs must fit the service's job store (1024 by default), which
	// the drain reads their timestamps back from.
	serveRate        = 40.0
	serveReadShare   = 0.25
	serveRefsPerCore = 10_000
	// clusterRate is the cluster workload's mean MMPP-2 arrival rate.
	// Of the submissions, 1-clusterUniqueShare draw from a Zipf-skewed
	// pool of 24 shared specs; the rest are unique.
	clusterRate        = 40.0
	clusterReadShare   = 0.25
	clusterUniqueShare = 0.4
	clusterRefsPerCore = 10_000
	// burstMeanSeconds keeps the cluster's bursts (8x the base rate,
	// 10% of the time) short, so a 25 s window holds about 25 of them
	// and its latencies do not hinge on how two or three happened to
	// fall.
	burstMeanSeconds = 0.1
	// readPoolJobs finished jobs, run during the serve workload's
	// set-up, are what its reads fetch: a read is only well defined on
	// a done job. The cluster's reads fetch its shared specs.
	readPoolJobs = 4
	// rerunSamples submitted specs are re-simulated directly through
	// experiment.Runner after the window and must match byte for byte.
	rerunSamples = 5
	drainTimeout = 90 * time.Second
)

// splitmix is a stateless splitmix64 hash: every per-arrival choice
// (workload, seed, pool entry, read target) is a pure function of the
// run seed and the arrival's index.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(x uint64) float64 { return float64(splitmix(x)>>11) / float64(1<<53) }

// specSeed gives generated specs seeds unique within a run; offset
// keeps the families (window jobs, shared pool, read pool) apart.
func specSeed(seed uint64, offset, i int) uint64 {
	return seed*1_000_003 + uint64(offset)*100_000 + uint64(i) + 1
}

// request is one scheduled request and what came back.
type request struct {
	openLoopRequest
	read   bool
	spec   serve.Spec // submissions
	body   []byte
	target int // reads: index into the read pool

	code    int
	netErr  string
	id      string
	deduped bool
	replica string
	payload []byte // reads: the response body
}

// rig is one running service under test: a single replica (serve) or
// a router in front of two replicas (cluster).
type rig struct {
	name     string // "serve" or "cluster"
	entry    string // base URL the client talks to
	refs     uint64
	post     *http.Client // one connection for submissions
	get      *http.Client // one connection per host for reads
	replicas []*replica
	router   *cluster.Router
	front    *httptest.Server // the entry point's listener
	wg       sync.WaitGroup   // replica listeners (cluster)
	// pool are the jobs run to completion during set-up; reads fetch
	// their results. setupSpecs holds their request bodies.
	pool       []poolJob
	setupSpecs map[string]bool
}

type replica struct {
	name, url string
	s         *serve.Server
	hs        *http.Server
}

type poolJob struct {
	id      string
	results []byte
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

func smokeSpec(wl string, seed, refs uint64) serve.Spec {
	return serve.Spec{Workloads: []string{wl}, Geometry: "smoke", RefsPerCore: refs, Seed: seed}
}

// setupServe starts one in-process replica with two workers behind a
// loopback listener.
func setupServe(p plan) (instance, error) {
	s, err := serve.New(serve.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	g := &rig{
		name: "serve", refs: p.scaled(serveRefsPerCore),
		post: oneConnClient(), get: oneConnClient(),
		front:    httptest.NewServer(s.Handler()),
		replicas: []*replica{{name: "serve", s: s}},
	}
	g.entry = g.front.URL
	g.replicas[0].url = g.entry
	names := workload.BenchmarkNames()
	var pool []serve.Spec
	for i := 0; i < readPoolJobs; i++ {
		pool = append(pool, smokeSpec(names[i%len(names)], specSeed(p.seed, 2, i), g.refs))
	}
	if err := g.warmPool(pool); err != nil {
		_ = g.close()
		return nil, err
	}
	return g, nil
}

// setupCluster starts a router and two replicas (one worker each, so
// the cluster has as many simulation workers as the serve workload)
// and waits until both are in the ring.
func setupCluster(p plan) (instance, error) {
	rt, err := cluster.New(cluster.Options{})
	if err != nil {
		return nil, err
	}
	g := &rig{
		name: "cluster", refs: p.scaled(clusterRefsPerCore),
		post: oneConnClient(), get: oneConnClient(),
		router: rt, front: httptest.NewServer(rt.Handler()),
	}
	g.entry = g.front.URL
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = g.close()
			return nil, err
		}
		url := "http://" + l.Addr().String()
		name := fmt.Sprintf("replica-%d", i)
		s, err := serve.New(serve.Options{
			Workers: 1, IntraParallelism: 1,
			RouterURL: g.entry, AdvertiseURL: url, ReplicaName: name,
		})
		if err != nil {
			_ = l.Close()
			_ = g.close()
			return nil, err
		}
		hs := &http.Server{Handler: s.Handler()}
		g.replicas = append(g.replicas, &replica{name: name, url: url, s: s, hs: hs})
		g.wg.Add(1)
		go serveOn(&g.wg, hs, l)
	}
	if err := g.waitRing(len(g.replicas)); err != nil {
		_ = g.close()
		return nil, err
	}
	// The shared specs run during set-up, so the window sees the
	// cluster's steady state: submissions of them are deduplicated
	// against done jobs, and reads fetch their cached results.
	if err := g.warmPool(sharedPool(p.seed, g.refs)); err != nil {
		_ = g.close()
		return nil, err
	}
	return g, nil
}

func serveOn(wg *sync.WaitGroup, hs *http.Server, l net.Listener) {
	defer wg.Done()
	_ = hs.Serve(l) // returns ErrServerClosed once close shuts it
}

// sharedPool is the cluster's 24 shared specs: 8 SPEC workloads × 3
// seeds, drawn Zipf-skewed so a few are hot.
func sharedPool(seed, refs uint64) []serve.Spec {
	var out []serve.Spec
	for k := 0; k < 3*len(workload.SPECNames); k++ {
		wl := workload.SPECNames[k%len(workload.SPECNames)]
		out = append(out, smokeSpec(wl, specSeed(seed, 1, k/len(workload.SPECNames)), refs))
	}
	return out
}

// variant is how a unique cluster submission differs from a shared
// spec: another inclusion policy, or one scheme left out. A variant
// simulates the same trace, so it can be a trace-store hit on the
// replica that already generated it.
type variant struct {
	inclusion string
	schemes   []string
}

// clusterVariants are the 16 variants of a shared spec: each policy
// with every scheme it supports (inclusive's is the shared spec
// itself, so it is left out) and with one of those dropped. CBF is
// unsafe under a fully exclusive hierarchy, so exclusive runs the
// other four.
var clusterVariants = func() []variant {
	var out []variant
	for _, v := range []variant{
		{"inclusive", []string{"base", "phased", "cbf", "redhip", "oracle"}},
		{"hybrid", []string{"base", "phased", "cbf", "redhip", "oracle"}},
		{"exclusive", []string{"base", "phased", "redhip", "oracle"}},
	} {
		if v.inclusion != "inclusive" {
			out = append(out, v)
		}
		for drop := range v.schemes {
			var s []string
			for k, name := range v.schemes {
				if k != drop {
					s = append(s, name)
				}
			}
			out = append(out, variant{v.inclusion, s})
		}
	}
	return out
}()

// uniqueVariant is the n-th unique cluster submission: a shared spec
// under one of the variants. Past len(pool)·len(clusterVariants)
// (384) submissions the sequence wraps, and repeats are dedup hits.
func uniqueVariant(pool []serve.Spec, n int) serve.Spec {
	n %= len(pool) * len(clusterVariants)
	spec := pool[n%len(pool)]
	v := clusterVariants[n/len(pool)]
	spec.Inclusion, spec.Schemes = v.inclusion, v.schemes
	return spec
}

// zipfPick maps x in [0, 1) to a shared spec, spec k with weight
// 1/(k+1).
func zipfPick(pool []serve.Spec, x float64) serve.Spec {
	var total float64
	for k := range pool {
		total += 1 / float64(k+1)
	}
	x *= total
	for k := range pool {
		x -= 1 / float64(k+1)
		if x < 0 {
			return pool[k]
		}
	}
	return pool[len(pool)-1]
}

// waitRing polls the router until n replicas are ready.
func (g *rig) waitRing(n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			RingSize int `json:"ring_size"`
		}
		if err := g.getJSON(g.entry+"/v1/cluster/status", &st); err == nil && st.RingSize == n {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster: %d replicas not ready after 30s", n)
}

// warmPool runs specs to completion and keeps their result bytes as
// the reads' expected answer.
func (g *rig) warmPool(specs []serve.Spec) error {
	var ids []string
	g.setupSpecs = map[string]bool{}
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		g.setupSpecs[string(body)] = true
		resp, err := g.post.Post(g.entry+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var sub struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("set-up submit: status %d: %v", resp.StatusCode, err)
		}
		ids = append(ids, sub.ID)
	}
	sts, err := g.waitTerminal(ids)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if sts[id].State != serve.StateDone {
			return fmt.Errorf("set-up job %s ended %s", id, sts[id].State)
		}
		code, b, err := g.fetch(g.entry + "/v1/jobs/" + id + "/results")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("set-up job %s results: status %d: %v", id, code, err)
		}
		g.pool = append(g.pool, poolJob{id: id, results: b})
	}
	return nil
}

func (g *rig) fetch(url string) (int, []byte, error) {
	resp, err := g.get.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (g *rig) getJSON(url string, v any) error {
	code, b, err := g.fetch(url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, code)
	}
	return json.Unmarshal(b, v)
}

// jobStatus is the subset of a job's status both the replica
// (serve.Status) and the router (cluster.RoutedStatus) return.
type jobStatus struct {
	ID           string      `json:"id"`
	Key          string      `json:"key"`
	State        serve.State `json:"state"`
	Replica      string      `json:"replica"`
	ReplicaJobID string      `json:"replica_job_id"`
	SubmittedAt  time.Time   `json:"submitted_at"`
	StartedAt    *time.Time  `json:"started_at"`
	FinishedAt   *time.Time  `json:"finished_at"`
}

// list returns every job the server at base holds, by ID.
func (g *rig) list(base string) (map[string]jobStatus, error) {
	var sts []jobStatus
	if err := g.getJSON(base+"/v1/jobs", &sts); err != nil {
		return nil, err
	}
	out := make(map[string]jobStatus, len(sts))
	for _, st := range sts {
		out[st.ID] = st
	}
	return out, nil
}

// waitTerminal polls the entry point's job list until every listed job
// has ended, and returns the final list. It polls often, because
// set-up time is measured through it.
func (g *rig) waitTerminal(ids []string) (map[string]jobStatus, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		sts, err := g.list(g.entry)
		if err != nil {
			return nil, err
		}
		pending := 0
		for _, id := range ids {
			st, ok := sts[id]
			if !ok {
				return nil, fmt.Errorf("%s: job %s left the job store before it was read back", g.name, id)
			}
			if !st.State.Terminal() {
				pending++
			}
		}
		if pending == 0 {
			return sts, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s: %d jobs still running after %s", g.name, pending, drainTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// schedule builds the run's requests from loadgen's arrival schedule.
func (g *rig) schedule(p plan) ([]*request, error) {
	model, rate, readShare := "poisson", serveRate, serveReadShare
	if g.name == "cluster" {
		model, rate, readShare = "bursty", clusterRate, clusterReadShare
	}
	arrivals, err := loadgen.BuildSchedule(loadgen.Profile{
		Name: g.name,
		Seed: p.seed,
		Phases: []loadgen.Phase{{
			DurationSeconds: p.window.Seconds(), RatePerSec: rate, Model: model,
			BurstMeanSeconds: burstMeanSeconds,
		}},
		Cohorts: []loadgen.Cohort{
			{Name: "submit", Weight: 1 - readShare, Spec: json.RawMessage(`{}`)},
			{Name: "read", Weight: readShare, Spec: json.RawMessage(`{}`)},
		},
	})
	if err != nil {
		return nil, err
	}
	names := workload.BenchmarkNames()
	pool := sharedPool(p.seed, g.refs)
	var reqs []*request
	posts, uniques := 0, 0
	for i, a := range arrivals {
		r := &request{openLoopRequest: openLoopRequest{Due: a.At}, read: a.Cohort == 1}
		if r.read {
			r.target = int(splitmix(p.seed^uint64(i)<<32) % uint64(len(g.pool)))
		} else {
			switch {
			case g.name == "serve":
				// Every submission is unique, and the workloads take
				// turns so every window runs the same mix.
				r.spec = smokeSpec(names[posts%len(names)], specSeed(p.seed, 0, posts), g.refs)
			case unit(p.seed^uint64(posts)<<40^0x5EED) < clusterUniqueShare:
				r.spec = uniqueVariant(pool, uniques)
				uniques++
			default:
				r.spec = zipfPick(pool, unit(p.seed^uint64(posts)<<24^0xC1))
			}
			if r.body, err = json.Marshal(r.spec); err != nil {
				return nil, err
			}
			posts++
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

func (g *rig) inputs(p plan) (string, error) {
	reqs, err := g.schedule(p)
	if err != nil {
		return "", err
	}
	return scheduleDigest(reqs), nil
}

// scheduleDigest hashes a run's generated requests.
func scheduleDigest(reqs []*request) string {
	var b bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&b, "%d %t %d %s\n", r.Due, r.read, r.target, r.body)
	}
	return digest(b.Bytes())
}

// sendSerial sends reqs in order over one client, each no earlier than
// its due time; a slow answer delays the requests queued behind it on
// the connection, and their latencies (timed from due) show it.
func sendSerial(wg *sync.WaitGroup, start time.Time, reqs []*request, send func(*request)) {
	defer wg.Done()
	for _, r := range reqs {
		if d := time.Until(start.Add(r.Due)); d > 0 {
			time.Sleep(d)
		}
		r.Sent = time.Since(start)
		send(r)
	}
}

// doPost submits one spec; done is stamped by the caller's clock.
func (g *rig) doPost(start time.Time) func(*request) {
	return func(r *request) {
		resp, err := g.post.Post(g.entry+"/v1/jobs", "application/json", bytes.NewReader(r.body))
		if err != nil {
			r.Done, r.netErr = time.Since(start), err.Error()
			return
		}
		var sub struct {
			ID      string `json:"id"`
			Deduped bool   `json:"deduped"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		r.Done, r.code, r.replica = time.Since(start), resp.StatusCode, resp.Header.Get(cluster.ReplicaHeader)
		if derr == nil {
			r.id, r.deduped = sub.ID, sub.Deduped
		}
	}
}

// doRead fetches one finished job's results.
func (g *rig) doRead(start time.Time) func(*request) {
	return func(r *request) {
		resp, err := g.get.Get(g.entry + "/v1/jobs/" + g.pool[r.target].id + "/results")
		if err != nil {
			r.Done, r.netErr = time.Since(start), err.Error()
			return
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.Done, r.code, r.payload = time.Since(start), resp.StatusCode, b
		if rerr != nil {
			r.netErr = rerr.Error()
		}
	}
}

func (g *rig) run(p plan) (*result, error) {
	reqs, err := g.schedule(p)
	if err != nil {
		return nil, err
	}
	var posts, reads []*request
	for _, r := range reqs {
		if r.read {
			reads = append(reads, r)
		} else {
			posts = append(posts, r)
		}
	}

	before, err := g.traceStores()
	if err != nil {
		return nil, err
	}
	p.rt.begin()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go sendSerial(&wg, start, posts, g.doPost(start))
	go sendSerial(&wg, start, reads, g.doRead(start))
	wg.Wait()
	var ids []string
	for _, r := range posts {
		if r.code == http.StatusAccepted && r.id != "" {
			ids = append(ids, r.id)
		}
	}
	final, err := g.waitTerminal(ids)
	p.rt.end()
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.ScheduleDigest = scheduleDigest(reqs)
	if err := g.measure(p, res, start, posts, reads, final, before); err != nil {
		return nil, err
	}
	if err := g.checkOutputs(p, res, posts, reads, final); err != nil {
		return nil, err
	}
	return res, nil
}

// fresh reports whether a submission created a job (as opposed to
// attaching to an existing one or being refused).
func (r *request) fresh() bool { return r.code == http.StatusAccepted && !r.deduped }

// measure computes the end-to-end and per-layer metrics from the
// requests and the servers' job timestamps.
func (g *rig) measure(p plan, res *result, start time.Time, posts, reads []*request, final map[string]jobStatus, before map[string]float64) error {
	var replicaJobs map[string]map[string]jobStatus
	if g.name == "cluster" {
		replicaJobs = map[string]map[string]jobStatus{}
		for _, rp := range g.replicas {
			sts, err := g.list(rp.url)
			if err != nil {
				return err
			}
			replicaJobs[rp.name] = sts
		}
	}
	// replicaView is the job as the executing replica saw it.
	replicaView := func(st jobStatus) (jobStatus, bool) {
		if replicaJobs == nil {
			return st, true
		}
		rs, ok := replicaJobs[st.Replica][st.ReplicaJobID]
		return rs, ok
	}

	var jobLat []timed
	var queue, running, mirror, submitAll, submitFresh, submitDedup, readLat, late []float64
	var speeds []float64 // each fresh job's simulated Mref per second it ran
	var firstDue, lastFinish time.Time
	perReplica := map[string]int{}
	accepted, deduped, rejected := 0, 0, 0
	for _, r := range posts {
		submitAll = append(submitAll, ms(r.Latency()))
		late = append(late, ms(r.Late()))
		if !r.fresh() {
			p.tr.add(g.name+".submit", r.id, 0, start.Add(r.Sent), start.Add(r.Done),
				map[string]string{"code": strconv.Itoa(r.code), "deduped": strconv.FormatBool(r.deduped)})
		}
		if r.code != http.StatusAccepted {
			rejected++
			continue
		}
		accepted++
		if r.deduped {
			deduped++
			submitDedup = append(submitDedup, ms(r.Latency()))
			continue
		}
		submitFresh = append(submitFresh, ms(r.Latency()))
		st := final[r.id]
		if st.State != serve.StateDone || st.FinishedAt == nil {
			continue
		}
		due := start.Add(r.Due)
		jobLat = append(jobLat, timed{r.Due, ms(st.FinishedAt.Sub(due))})
		if firstDue.IsZero() || due.Before(firstDue) {
			firstDue = due
		}
		if st.FinishedAt.After(lastFinish) {
			lastFinish = *st.FinishedAt
		}
		perReplica[r.replica]++
		rs, ok := replicaView(st)
		if ok && rs.StartedAt != nil && rs.FinishedAt != nil {
			queue = append(queue, ms(rs.StartedAt.Sub(rs.SubmittedAt)))
			running = append(running, ms(rs.FinishedAt.Sub(*rs.StartedAt)))
			speeds = append(speeds, jobRefs(r.spec)/1e6/rs.FinishedAt.Sub(*rs.StartedAt).Seconds())
			if replicaJobs != nil {
				mirror = append(mirror, ms(st.FinishedAt.Sub(*rs.FinishedAt)))
			}
		}
		root := p.tr.add("bench.job", r.id, 0, due, *st.FinishedAt, map[string]string{"key": st.Key})
		p.tr.add("loadgen.late", r.id, root, due, start.Add(r.Sent), nil)
		p.tr.add(g.name+".submit", r.id, root, start.Add(r.Sent), start.Add(r.Done), nil)
		if ok && rs.StartedAt != nil && rs.FinishedAt != nil {
			attrs := map[string]string{"replica": st.Replica, "replica_job_id": rs.ID}
			p.tr.add("serve.queued", r.id, root, rs.SubmittedAt, *rs.StartedAt, attrs)
			p.tr.add("serve.running", r.id, root, *rs.StartedAt, *rs.FinishedAt, attrs)
			if replicaJobs != nil {
				p.tr.add("cluster.mirror", r.id, root, *rs.FinishedAt, *st.FinishedAt, attrs)
			}
		}
	}
	for _, r := range reads {
		readLat = append(readLat, ms(r.Latency()))
		late = append(late, ms(r.Late()))
		p.tr.add(g.name+".read", g.pool[r.target].id, 0, start.Add(r.Sent), start.Add(r.Done), nil)
	}
	if len(jobLat) == 0 {
		return fmt.Errorf("%s: no job finished in the window", g.name)
	}

	var lats []float64
	for _, j := range jobLat {
		lats = append(lats, j.v)
	}
	asc := sorted(lats)
	res.Metrics["job_p50_ms"] = percentile(asc, 0.5)
	tailName := g.name + ".job_p95_ms"
	if v, k, ok := windowedTail(jobLat, p.window, 0.95); ok {
		res.Layers[tailName] = v
		res.note("%s: %s is the median of the p95s of %d equal stretches of the window (%d fresh jobs)", g.name, tailName, k, len(asc))
	} else if q, v, ok := highestTail(asc); ok {
		res.Layers[tailName] = v
		res.note("%s: only %d fresh jobs; %s reports p%g, the highest percentile with ten samples beyond it", g.name, len(asc), tailName, 100*q)
	} else {
		res.Layers[tailName] = asc[len(asc)-1]
		res.note("%s: only %d fresh jobs; %s reports the slowest job", g.name, len(asc), tailName)
	}
	// Open loop, the work done per wall second is just the offered
	// load; the service's own speed is how fast a job simulates once it
	// runs, a median over jobs so a few stretched by contention do not
	// move it.
	res.Metrics["sim_mrefs_per_s"] = median(speeds)
	span := lastFinish.Sub(firstDue).Seconds()
	res.note("%s: %d submissions (%d fresh jobs, %d deduplicated, %d refused), %d reads over %s",
		g.name, len(posts), len(jobLat), deduped, rejected, len(reads), p.window)

	if p.tr == nil {
		return nil
	}
	L := res.Layers
	p50 := func(xs []float64) float64 { return percentile(sorted(xs), 0.5) }
	p95 := func(xs []float64) float64 { return percentile(sorted(xs), 0.95) }
	L["serve.queue_wait_p50_ms"] = p50(queue)
	L["serve.queue_wait_p95_ms"] = p95(queue)
	L["serve.run_p50_ms"] = p50(running)
	L["serve.run_p95_ms"] = p95(running)
	L["loadgen.late_p95_ms"] = p95(late)
	jobsPerS := float64(len(jobLat)) / span
	if g.name == "serve" {
		L["serve.submit_p50_ms"] = p50(submitAll)
		L["serve.submit_p95_ms"] = p95(submitAll)
		L["serve.read_p95_ms"] = p95(readLat)
		L["serve.jobs_per_s"] = jobsPerS
		L["serve.rejected_frac"] = ratio(float64(rejected), float64(len(posts)))
		L["serve.dedup_frac"] = ratio(float64(deduped), float64(accepted))
	} else {
		L["cluster.submit_p95_ms"] = p95(submitAll)
		L["cluster.submit_created_p50_ms"] = p50(submitFresh)
		L["cluster.submit_dedup_p50_ms"] = p50(submitDedup)
		L["cluster.read_p95_ms"] = p95(readLat)
		L["cluster.mirror_lag_p50_ms"] = p50(mirror)
		L["cluster.mirror_lag_p95_ms"] = p95(mirror)
		L["cluster.jobs_per_s"] = jobsPerS
		L["cluster.dedup_frac"] = ratio(float64(deduped), float64(accepted))
		lo, hi := -1, 0
		for _, rp := range g.replicas {
			n := perReplica[rp.name]
			if lo < 0 || n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		L["cluster.placement_spread"] = ratio(float64(hi), float64(lo))
	}
	return g.traceStoreLayers(L, before)
}

// jobRefs is the simulated ref×scheme count of one smoke-geometry job.
func jobRefs(spec serve.Spec) float64 {
	schemes := len(spec.Schemes)
	if schemes == 0 {
		schemes = len(sim.Schemes())
	}
	return float64(uint64(sim.Smoke().Cores) * spec.RefsPerCore * uint64(schemes))
}

// traceStores sums the replicas' trace-store series, read from their
// Prometheus endpoints.
func (g *rig) traceStores() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, rp := range g.replicas {
		vals, err := g.prom(rp.url)
		if err != nil {
			return nil, err
		}
		for k, v := range vals {
			if strings.HasPrefix(k, "redhip_tracestore_") {
				sum[k] += v
			}
		}
	}
	return sum, nil
}

// traceStoreLayers writes the trace-store metrics of the window: the
// counters' movement since before, and the resident bytes now.
func (g *rig) traceStoreLayers(L, before map[string]float64) error {
	now, err := g.traceStores()
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return now[k] - before[k] }
	hits, misses := delta("redhip_tracestore_hits_total"), delta("redhip_tracestore_misses_total")
	mats, nanos := delta("redhip_tracestore_materializations_total"), delta("redhip_tracestore_materialize_nanos_total")
	L["workload.gen_ns_per_ref"] = ratio(nanos, mats*float64(sim.Smoke().Cores)*float64(g.refs))
	L["tracestore.materialize_ms"] = ratio(nanos, mats) / 1e6
	L["tracestore.materializations"] = mats
	L["tracestore.hit_rate"] = ratio(hits, hits+misses)
	L["tracestore.resident_mib"] = now["redhip_tracestore_bytes"] / (1 << 20)
	return nil
}

// prom scrapes the unlabelled series of a Prometheus text endpoint.
func (g *rig) prom(base string) (map[string]float64, error) {
	code, b, err := g.fetch(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

func (g *rig) promCounter(base, name string) (float64, error) {
	vals, err := g.prom(base)
	if err != nil {
		return 0, err
	}
	v, ok := vals[name]
	if !ok {
		return 0, fmt.Errorf("%s/metrics has no %s", base, name)
	}
	return v, nil
}

// checkOutputs verifies what the service returned, after the window
// and untimed.
func (g *rig) checkOutputs(p plan, res *result, posts, reads []*request, final map[string]jobStatus) error {
	res.Attempted = len(posts) + len(reads)
	var refused, unfinished, badReads int
	var fresh []*request
	for _, r := range posts {
		switch {
		case r.code != http.StatusAccepted:
			refused++
		case final[r.id].State != serve.StateDone:
			unfinished++
		case !r.deduped:
			fresh = append(fresh, r)
		}
	}
	for _, r := range reads {
		if r.netErr != "" || r.code != http.StatusOK || !bytes.Equal(r.payload, g.pool[r.target].results) {
			badReads++
		}
	}
	res.Failed = refused + unfinished + badReads
	res.check("every submission accepted", refused == 0, "%d of %d refused or unanswered", refused, len(posts))
	res.check("every accepted job finished done", unfinished == 0, "%d did not", unfinished)
	res.check("every read returned the job's result bytes", badReads == 0, "%d of %d wrong or failed", badReads, len(reads))

	// Re-simulate evenly spaced fresh jobs directly and compare bytes.
	var digestIn []byte
	wrong := 0
	for k := 0; k < rerunSamples && len(fresh) > 0; k++ {
		r := fresh[k*len(fresh)/rerunSamples]
		code, got, err := g.fetch(g.entry + "/v1/jobs/" + r.id + "/results")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("%s: results of %s: status %d: %v", g.name, r.id, code, err)
		}
		want, err := rerun(r.spec)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			wrong++
		}
		digestIn = append(digestIn, got...)
	}
	res.Failed += wrong
	res.ResultDigest = digest(digestIn)
	res.check("sampled results equal a direct experiment.Runner rerun byte for byte", wrong == 0,
		"%d of %d differ", wrong, rerunSamples)

	if g.name != "cluster" {
		return nil
	}
	// Duplicate submissions of one spec must land on one job with one
	// result: every job ID they were given serves the bytes the
	// executing replica serves.
	ids := map[string]map[string]bool{} // spec body → job IDs returned
	submitted := map[string]int{}
	for _, r := range posts {
		if r.code == http.StatusAccepted {
			k := string(r.body)
			if ids[k] == nil {
				ids[k] = map[string]bool{}
			}
			ids[k][r.id] = true
			submitted[k]++
		}
	}
	dupBad := 0
	for k, set := range ids {
		if submitted[k] < 2 {
			continue
		}
		var want []byte
		for id := range set {
			st := final[id]
			if want == nil {
				want = g.replicaResults(st)
			}
			code, b, err := g.fetch(g.entry + "/v1/jobs/" + id + "/results")
			if err != nil || code != http.StatusOK || want == nil || !bytes.Equal(b, want) {
				dupBad++
			}
		}
	}
	res.Failed += dupBad
	res.check("duplicate submissions return identical bytes from router and replica", dupBad == 0, "%d mismatches", dupBad)

	var executed uint64
	for _, rp := range g.replicas {
		executed += rp.s.ExecutionsDone()
	}
	unique := len(g.setupSpecs)
	for body := range ids {
		if !g.setupSpecs[body] {
			unique++
		}
	}
	res.check("executions summed over replicas equal unique specs", executed == uint64(unique),
		"%d executions for %d unique specs", executed, unique)
	rehomes, err := g.promCounter(g.entry, "redhip_router_rehomes_total")
	if err != nil {
		return err
	}
	res.Layers["cluster.rehomes"] = rehomes
	res.check("no job was re-homed", rehomes == 0, "%g re-homes", rehomes)
	return nil
}

// replicaResults fetches a routed job's result bytes from the replica
// that executed it; nil if that fails.
func (g *rig) replicaResults(st jobStatus) []byte {
	for _, rp := range g.replicas {
		if rp.name == st.Replica {
			code, b, err := g.fetch(rp.url + "/v1/jobs/" + st.ReplicaJobID + "/results")
			if err == nil && code == http.StatusOK {
				return b
			}
		}
	}
	return nil
}

// rerun simulates a submitted spec directly through experiment.Runner,
// the way a replica does, and encodes the results as /results does.
func rerun(spec serve.Spec) ([]byte, error) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = spec.RefsPerCore
	if spec.Inclusion != "" {
		for _, pol := range []sim.InclusionPolicy{sim.Inclusive, sim.Hybrid, sim.Exclusive} {
			if pol.String() == spec.Inclusion {
				cfg.Inclusion = pol
			}
		}
	}
	schemes := sim.Schemes()
	if len(spec.Schemes) > 0 {
		schemes = nil
		for _, name := range spec.Schemes {
			for _, sc := range sim.Schemes() {
				if sc.String() == name {
					schemes = append(schemes, sc)
				}
			}
		}
	}
	r, err := experiment.NewRunner(experiment.Options{Base: cfg, Seed: spec.Seed, Workloads: spec.Workloads, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	var all []*sim.Result
	for _, wl := range spec.Workloads {
		res, err := r.SchemeSweep(wl, schemes)
		if err != nil {
			return nil, fmt.Errorf("rerun %s: %w", wl, err)
		}
		all = append(all, res...)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// close stops the router (so nothing re-homes during teardown), drains
// the replicas, and closes every listener and idle connection.
func (g *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if g.router != nil {
		errs = append(errs, g.router.Shutdown(ctx))
	}
	for _, rp := range g.replicas {
		errs = append(errs, rp.s.Shutdown(ctx))
		if rp.hs != nil {
			_ = rp.hs.Close()
		}
	}
	g.wg.Wait()
	g.post.CloseIdleConnections()
	g.get.CloseIdleConnections()
	if g.front != nil {
		g.front.Close()
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s teardown: %w", g.name, err)
	}
	return nil
}
