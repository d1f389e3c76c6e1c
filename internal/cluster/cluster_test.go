//go:build failover

// The failover drill: three REAL redhip-serve replicas behind a real
// router, with a transport that can partition them and listeners that
// can be killed mid-sweep. Run via scripts/failover_smoke.sh or:
//
//	go test -tags failover -race ./internal/cluster/
//
// It asserts the three cluster invariants end to end:
//
//  1. no lost jobs — every accepted submission reaches done;
//  2. no double execution — Server.ExecutionsDone summed across all
//     three replicas equals the number of unique specs executed;
//  3. bit-identical results — every routed job's /results bytes equal
//     a fault-free single-replica reference run of the same spec.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"redhip/internal/serve"
)

// drillLease is the replica-side router lease (drill_plain_test.go /
// drill_race_test.go pick the value per build). Jobs are sized (via
// drillRefs) to run for several times this, so a killed or partitioned
// replica always fences before any in-flight job can complete there —
// the no-double-execution invariant depends on that ordering. The
// race-enabled build stretches the lease: the detector slows the
// replica HTTP handlers enough that a tight lease fences spuriously
// on a loaded (or single-CPU) host. Spurious fences self-heal — the
// cancelled job is re-homed and re-executed, still counted once — but
// each one costs a full re-execution, so the drill would crawl.
const (
	drillRefs = 1_500_000 // ~1s per job without -race, ~14s with
	drillWait = 240 * time.Second
)

// partitionTransport is the router's outbound transport with a kill
// switch per replica host: blocked hosts get transport errors, exactly
// what a network partition looks like to the router's probes and
// submissions.
type partitionTransport struct {
	mu      sync.Mutex
	blocked map[string]bool
}

func (p *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	b := p.blocked[req.URL.Host]
	p.mu.Unlock()
	if b {
		return nil, fmt.Errorf("injected partition: %s unreachable", req.URL.Host)
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (p *partitionTransport) set(host string, blocked bool) {
	p.mu.Lock()
	if p.blocked == nil {
		p.blocked = make(map[string]bool)
	}
	p.blocked[host] = blocked
	p.mu.Unlock()
}

// replica is one in-process redhip-serve instance with its own
// listener, killable without a graceful drain.
type replica struct {
	name string
	s    *serve.Server
	http *http.Server
	host string // host:port, the partition key
	url  string
}

// startReplica boots a serve instance in cluster mode. The listener is
// created first so the advertise URL exists before serve.New starts
// the registration loop.
func startReplica(t *testing.T, name, routerURL string) *replica {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	url := "http://" + l.Addr().String()
	s, err := serve.New(serve.Options{
		Workers:      2,
		QueueDepth:   64,
		RouterURL:    routerURL,
		AdvertiseURL: url,
		ReplicaName:  name,
		LeaseTimeout: drillLease,
	})
	if err != nil {
		t.Fatalf("serve.New(%s): %v", name, err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(l) }()
	r := &replica{name: name, s: s, http: hs, host: l.Addr().String(), url: url}
	t.Cleanup(func() {
		_ = r.http.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = r.s.Shutdown(ctx)
	})
	return r
}

// kill closes the replica's listener and every open connection — the
// in-process equivalent of SIGKILLing the process from the cluster's
// point of view. The serve.Server itself keeps running (like a real
// kill, nothing graceful happens); its lease fences its jobs.
func (r *replica) kill() { _ = r.http.Close() }

// drillSpec returns the n-th unique drill spec: long enough to
// straddle every failover window.
func drillSpec(n int) serve.Spec {
	return serve.Spec{
		Workloads:   []string{"mcf"},
		Schemes:     []string{"base", "redhip"},
		Geometry:    "smoke",
		RefsPerCore: uint64(drillRefs + n),
	}
}

// submitRetry submits a spec to the router, retrying transient
// rejections (a dying owner yields 502/503 until the ring catches up).
func submitRetry(t *testing.T, routerURL string, spec serve.Spec) (serve.SubmitResponse, string) {
	t.Helper()
	deadline := time.Now().Add(drillWait)
	for time.Now().Before(deadline) {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(routerURL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			var out serve.SubmitResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("decode submit response: %v (%s)", err, raw)
			}
			return out, resp.Header.Get(ReplicaHeader)
		}
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		t.Fatalf("submit = %d (%s)", resp.StatusCode, raw)
	}
	t.Fatal("submit never accepted")
	return serve.SubmitResponse{}, ""
}

// waitDrillDone waits (drill-length deadline) for a routed job's done.
func waitDrillDone(t *testing.T, routerURL, id string) RoutedStatus {
	t.Helper()
	deadline := time.Now().Add(drillWait)
	for time.Now().Before(deadline) {
		st := routedStatus(t, routerURL, id)
		if st.State == serve.StateDone {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q (err %q), want done — a job was lost", id, st.State, st.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %s", id, drillWait)
	return RoutedStatus{}
}

// fetchBytes GETs a URL and returns status and body.
func fetchBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func TestFailoverDrill(t *testing.T) {
	part := &partitionTransport{}
	rt, err := New(Options{
		Seed:             42,
		ProbeInterval:    50 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		FailThreshold:    3,
		SuccessThreshold: 1,
		MaxJobs:          256,
		Transport:        part,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(routerSrv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})

	replicas := []*replica{
		startReplica(t, "r1", routerSrv.URL),
		startReplica(t, "r2", routerSrv.URL),
		startReplica(t, "r3", routerSrv.URL),
	}
	byName := make(map[string]*replica)
	for _, r := range replicas {
		byName[r.name] = r
	}
	waitFor(t, "all three replicas in ring", func() bool { return rt.members.Ring().Size() == 3 })

	// Seeded submission order over the six unique drill specs — the
	// same splitmix used for probe jitter shuffles them, so two runs of
	// the drill replay the identical arrival sequence.
	order := make([]int, 6)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(unitFloat(42, "drill", uint64(i)) * float64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	waveA, waveB, waveC := order[0:2], order[2:4], order[4:6]

	jobs := make(map[int]serve.SubmitResponse) // spec index -> routed job
	mustRehome := make(map[int]bool)           // jobs whose first owner is taken down

	// --- wave A + kill drill ---------------------------------------------------
	var victim *replica
	for _, n := range waveA {
		sub, owner := submitRetry(t, routerSrv.URL, drillSpec(n))
		jobs[n] = sub
		if victim == nil {
			victim = byName[owner]
			mustRehome[n] = true
		}
	}
	// Duplicate arrival dedups against the in-flight routed job.
	dup, _ := submitRetry(t, routerSrv.URL, drillSpec(waveA[0]))
	if !dup.Deduped || dup.ID != jobs[waveA[0]].ID {
		t.Fatalf("duplicate arrival not deduped: %+v vs %+v", dup, jobs[waveA[0]])
	}

	time.Sleep(150 * time.Millisecond) // let the sweeps start
	t.Logf("killing %s", victim.name)
	victim.kill()
	waitFor(t, victim.name+" declared dead", func() bool {
		return rt.members.get(victim.name).stateNow() == MemberDead
	})

	// --- wave B + partition drill ----------------------------------------------
	var partitioned *replica
	for _, n := range waveB {
		sub, owner := submitRetry(t, routerSrv.URL, drillSpec(n))
		jobs[n] = sub
		if partitioned == nil {
			partitioned = byName[owner]
			mustRehome[n] = true
		}
	}
	time.Sleep(150 * time.Millisecond)
	t.Logf("partitioning %s", partitioned.name)
	part.set(partitioned.host, true)
	waitFor(t, partitioned.name+" declared dead", func() bool {
		return rt.members.get(partitioned.name).stateNow() == MemberDead
	})

	// Give the partitioned replica its full fence window (it must cancel
	// its jobs, not finish them), then heal the partition.
	time.Sleep(2 * drillLease)
	t.Logf("healing %s", partitioned.name)
	part.set(partitioned.host, false)
	waitFor(t, partitioned.name+" back in ring", func() bool {
		return rt.members.get(partitioned.name).stateNow() == MemberReady
	})

	// --- wave C on the healed two-replica ring ---------------------------------
	for _, n := range waveC {
		sub, _ := submitRetry(t, routerSrv.URL, drillSpec(n))
		jobs[n] = sub
	}

	// --- invariant 1: no lost jobs ---------------------------------------------
	for n, sub := range jobs {
		st := waitDrillDone(t, routerSrv.URL, sub.ID)
		if mustRehome[n] && st.Rehomes < 1 {
			t.Errorf("spec %d lost its owner but reports %d re-homes", n, st.Rehomes)
		}
	}

	// Gap-free streams: contiguous router event IDs, exactly one
	// terminal; the re-homed jobs narrate their hand-off.
	for n, sub := range jobs {
		evs := readAllEvents(t, routerSrv.URL, sub.ID)
		want := "routed"
		if mustRehome[n] {
			want = "rehomed"
		}
		assertEventLog(t, evs, want, serve.StateDone)
	}

	// --- invariant 2: no double execution --------------------------------------
	// The killed and partitioned replicas fenced before any of their
	// jobs could finish, so across all three replicas each unique spec
	// executed exactly once.
	var total uint64
	for _, r := range replicas {
		n := r.s.ExecutionsDone()
		t.Logf("%s executed %d (lease fences: %d)", r.name, n, r.s.LeaseFences())
		total += n
	}
	if total != uint64(len(jobs)) {
		t.Fatalf("executions across replicas = %d, want %d (one per unique spec)", total, len(jobs))
	}
	if byName[partitioned.name].s.LeaseFences() == 0 {
		t.Error("partitioned replica never fenced — the drill did not exercise the lease")
	}

	// --- invariant 3: bit-identical results ------------------------------------
	// A fault-free single replica (no router, no failures) is the
	// reference; every routed job's results must match it byte for byte.
	ref, err := serve.New(serve.Options{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatalf("serve.New(reference): %v", err)
	}
	refSrv := httptest.NewServer(ref.Handler())
	t.Cleanup(refSrv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ref.Shutdown(ctx)
	})
	refJobs := make(map[int]string)
	for n := range jobs {
		body, _ := json.Marshal(drillSpec(n))
		resp, err := http.Post(refSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("reference submit: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reference submit = %d (%s)", resp.StatusCode, raw)
		}
		var out serve.SubmitResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode reference submit: %v", err)
		}
		refJobs[n] = out.ID
	}
	for n, rid := range refJobs {
		deadline := time.Now().Add(drillWait)
		for {
			code, _ := fetchBytes(t, refSrv.URL+"/v1/jobs/"+rid+"/results")
			if code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reference job for spec %d never finished", n)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	for n, sub := range jobs {
		code, got := fetchBytes(t, routerSrv.URL+"/v1/jobs/"+sub.ID+"/results")
		if code != http.StatusOK {
			t.Fatalf("router results for spec %d = %d", n, code)
		}
		code, want := fetchBytes(t, refSrv.URL+"/v1/jobs/"+refJobs[n]+"/results")
		if code != http.StatusOK {
			t.Fatalf("reference results for spec %d = %d", n, code)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("spec %d: routed results differ from the fault-free reference\nrouted:    %.200s\nreference: %.200s", n, got, want)
		}
	}

	// The drill actually moved work: the router counted the re-homes.
	if n := rt.metrics.rehomes.Load(); n < 2 {
		t.Errorf("router re-homed %d jobs, drill expected >= 2", n)
	}
}
