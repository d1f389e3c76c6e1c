package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"time"

	"redhip/internal/version"
)

// RouterProbeHeader marks a GET /readyz as a redhip-router health
// probe. For the replica the probe doubles as a lease renewal: as long
// as probes keep arriving, the router still believes this replica owns
// its key ranges. When they stop for longer than Options.LeaseTimeout
// the replica must assume the router has declared it dead and re-homed
// its jobs — so it fences itself (cancels all non-terminal jobs)
// rather than finish work another replica is now re-executing, which
// would double-execute specs and break the cluster's accounting.
const RouterProbeHeader = "X-RedHiP-Router"

// RegistrationBody is the JSON body of POST /v1/cluster/register —
// what a replica announces to the router. Version carries the full
// build identity (internal/version); the router refuses a ring mixing
// versions, because bit-identical results across replicas are only
// guaranteed at equal code.
type RegistrationBody struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
	Version string `json:"version"`
}

// RegistrationAck is the subset of the router's registration response
// the replica acts on: the router's dead-declaration floor — the
// minimum time between this replica's last successful probe and the
// router declaring it dead and re-homing its jobs. The replica's
// fencing lease must stay below it, or a partitioned replica keeps
// executing work the router has already handed to a new owner.
type RegistrationAck struct {
	DeadAfterMillis int64 `json:"dead_after_ms"`
}

// startCluster launches the replica-side cluster goroutines:
// the registration loop and the lease watchdog. Options.fill has
// validated RouterURL/AdvertiseURL/LeaseTimeout already.
func (s *Server) startCluster() {
	s.leaseNanos.Store(int64(s.opts.LeaseTimeout))
	ctx, cancel := context.WithCancel(context.Background())
	s.clusterCancel = cancel
	s.clusterWG.Add(2)
	go s.registerLoop(ctx)
	go s.leaseWatchdog(ctx)
}

// leaseNow returns the effective lease: Options.LeaseTimeout, unless
// the router's registration ack tightened it (auto mode).
func (s *Server) leaseNow() time.Duration {
	return time.Duration(s.leaseNanos.Load())
}

// applyLeaseAck folds the router's advertised dead-declaration floor
// into the effective lease. An auto lease becomes 3/4 of the floor —
// below it (so the fence always precedes re-homing) yet above the
// worst-case probe gap of 1.25 x ProbeInterval (the floor is at least
// FailThreshold >= 1 probe gaps, so 3/4 of it clears one), keeping
// spurious fences rare. An explicit lease is honoured as-is but warned
// about once when it is not below the floor, because then fencing
// cannot prevent split-brain double execution. Returns the updated
// warned flag.
func (s *Server) applyLeaseAck(ack RegistrationAck, warned bool) bool {
	if ack.DeadAfterMillis <= 0 {
		return warned // router predates the advertisement; keep the configured lease
	}
	dead := time.Duration(ack.DeadAfterMillis) * time.Millisecond
	if !s.opts.leaseAuto {
		if s.opts.LeaseTimeout >= dead && !warned {
			log.Printf("serve: LeaseTimeout %s is not below the router's dead-declaration floor %s — a partitioned replica cannot fence before its jobs are re-homed (double-execution risk unless jobs outlive the lease)",
				s.opts.LeaseTimeout, dead)
			return true
		}
		return warned
	}
	derived := dead * 3 / 4
	if derived < 10*time.Millisecond {
		derived = 10 * time.Millisecond
	}
	s.leaseNanos.Store(int64(derived))
	return warned
}

// renewLease records a router probe sighting; the watchdog measures
// lease age from here. A probe that arrives after the lease already
// lapsed — router probes queue up while the process is stopped and
// land on resume, possibly before the watchdog's next tick — fences
// before it renews: the router may have re-homed this replica's jobs
// in the gap. The swap and the watchdog's CompareAndSwap make one
// expiry fence exactly once, whichever path sees it first.
func (s *Server) renewLease() {
	now := s.now().UnixNano()
	if last := s.lastProbe.Swap(now); last != 0 && time.Duration(now-last) > s.leaseNow() {
		s.fenceJobs()
	}
}

// registerLoop announces this replica to the router, forever:
// registration is idempotent (the router updates URL/version in
// place), so re-announcing every lease period both heals a restarted
// router (which forgot its members) and re-admits this replica after a
// fence. Each accepted registration carries the router's ack, whose
// dead-declaration floor recalibrates the lease (applyLeaseAck).
// Rejections — version skew, router not up yet — just retry; the retry
// delay is the error path's only state.
func (s *Server) registerLoop(ctx context.Context) {
	defer s.clusterWG.Done()
	payload, err := json.Marshal(RegistrationBody{
		Name:    s.opts.ReplicaName,
		BaseURL: s.opts.AdvertiseURL,
		Version: version.String(),
	})
	if err != nil {
		return // plain struct; cannot fail
	}
	client := &http.Client{Timeout: 5 * time.Second}
	warned := false
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		registered := false
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			s.opts.RouterURL+"/v1/cluster/register", bytes.NewReader(payload))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			if resp, derr := client.Do(req); derr == nil {
				if resp.StatusCode == http.StatusOK {
					registered = true
					var ack RegistrationAck
					if jerr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ack); jerr == nil {
						warned = s.applyLeaseAck(ack, warned)
					}
				}
				resp.Body.Close()
			}
		}
		delay := s.leaseNow()
		if !registered {
			delay /= 4
			if delay < 50*time.Millisecond {
				delay = 50 * time.Millisecond
			}
		}
		timer.Reset(delay)
	}
}

// leaseWatchdog fences the replica when the router lease expires. The
// watchdog only arms after the first probe (lastProbe != 0): a replica
// that never met its router has nothing to fence. Fencing resets the
// clock to unarmed with a CompareAndSwap, so a probe that renewed (or
// itself fenced) in the meantime wins and one lease loss fences once;
// the next probe that arrives re-arms it and normal service resumes —
// the fence guards the partition window, it is not a terminal state.
func (s *Server) leaseWatchdog(ctx context.Context) {
	defer s.clusterWG.Done()
	timer := time.NewTimer(0) // fires at once; each pass re-arms from the live lease
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		lease := s.leaseNow()
		if last := s.lastProbe.Load(); last != 0 && s.now().Sub(time.Unix(0, last)) > lease &&
			s.lastProbe.CompareAndSwap(last, 0) {
			s.fenceJobs()
		}
		tick := lease / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		timer.Reset(tick)
	}
}

// fenceJobs cancels every non-terminal job: queued jobs finish
// cancelled immediately, running jobs have their contexts cancelled
// and reach cancelled through their workers. The point is the
// no-double-execution invariant — by the time the router re-homes this
// replica's jobs (dead declaration takes longer than the lease), none
// of them can still complete here, so exactly one replica ever counts
// each spec's execution. Direct (non-router) submissions are fenced
// too: in cluster mode the router is the front door, and a split-brain
// replica cannot tell who submitted what.
//
// The lease generation moves before any job is cancelled, so a running
// job that reaches its commit point while the loop below has not yet
// cancelled it still sees the fence (Server.leaseLost).
func (s *Server) fenceJobs() {
	s.leaseGen.Add(1)
	s.metrics.leaseFences.Inc()
	for _, j := range s.store.List() {
		s.cancelJob(j, "router lease lost: job fenced")
	}
}

// ExecutionsDone reports how many jobs completed their sweep on this
// replica — the failover drill sums it across replicas and compares
// with the number of unique specs submitted.
func (s *Server) ExecutionsDone() uint64 {
	return s.metrics.executionsDone.Load()
}

// LeaseFences reports how many times the lease watchdog fenced this
// replica.
func (s *Server) LeaseFences() uint64 {
	return s.metrics.leaseFences.Load()
}
