package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"redhip/internal/serve"
)

// MemberState is a replica's position in the membership state machine:
//
//	joining ──probe ok──▶ ready ◀──────────────┐
//	                        │                  │ probe ok
//	     readyz 503 "stopping"──▶ draining ────┤ (x SuccessThreshold
//	     readyz 503 other ──────▶ unready ─────┤  after dead)
//	     transport failure
//	       x FailThreshold ─────▶ dead ────────┘
//
// Only ready members are in the ring. draining and unready members are
// out of the ring for NEW work but alive: their in-flight jobs finish
// normally and are left alone. dead members additionally trigger job
// re-homing — their non-terminal jobs re-submit to the new ring owners.
type MemberState string

const (
	MemberJoining  MemberState = "joining"
	MemberReady    MemberState = "ready"
	MemberDraining MemberState = "draining"
	MemberUnready  MemberState = "unready"
	MemberDead     MemberState = "dead"
)

// inRing reports whether a member in this state receives new work.
func (s MemberState) inRing() bool { return s == MemberReady }

// Member is one registered replica. Name is the stable identity and
// immutable; the URL and version are guarded because a replica that
// restarts re-registers under its old name with a possibly new port
// and build, and the prober/watcher goroutines read them concurrently.
type Member struct {
	Name string

	mu        sync.Mutex
	baseURL   string      //redhip:guardedby mu // re-registration can move a restarted replica
	version   string      //redhip:guardedby mu
	state     MemberState //redhip:guardedby mu
	fails     int         //redhip:guardedby mu // consecutive probe transport failures
	successes int         //redhip:guardedby mu // consecutive probe passes since leaving dead
	reasons   []string    //redhip:guardedby mu // machine-readable not-ready reasons from /readyz
	lastProbe time.Time   //redhip:guardedby mu
	doneJobs  uint64      //redhip:guardedby mu // router-observed done results produced here
}

// stateNow returns the member's current state.
func (m *Member) stateNow() MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// baseURLNow returns the member's current base URL.
func (m *Member) baseURLNow() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.baseURL
}

// versionNow returns the member's current build version.
func (m *Member) versionNow() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// noteDone counts one done result the router cached from this member —
// the attribution that keeps cluster-wide execution accounting exact
// even after the member dies and its own counters become unreadable.
func (m *Member) noteDone() {
	m.mu.Lock()
	m.doneJobs++
	m.mu.Unlock()
}

// MemberStatus is one member's row in GET /v1/cluster/status.
type MemberStatus struct {
	Name      string      `json:"name"`
	BaseURL   string      `json:"base_url"`
	Version   string      `json:"version"`
	State     MemberState `json:"state"`
	Reasons   []string    `json:"reasons,omitempty"`
	LastProbe *time.Time  `json:"last_probe,omitempty"`
	DoneJobs  uint64      `json:"done_jobs"`
}

func (m *Member) status() MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MemberStatus{
		Name:     m.Name,
		BaseURL:  m.baseURL,
		Version:  m.version,
		State:    m.state,
		Reasons:  append([]string(nil), m.reasons...),
		DoneJobs: m.doneJobs,
	}
	if !m.lastProbe.IsZero() {
		t := m.lastProbe
		st.LastProbe = &t
	}
	return st
}

// VersionSkewError is the registration rejection for a replica whose
// build version differs from the ring's: results are only guaranteed
// bit-identical across replicas running the same code, so a mixed ring
// could hand two submissions of one spec different answers.
type VersionSkewError struct {
	Have    string // version already in the ring
	HaveWho string // a member carrying it
	Got     string // the version that tried to join
	GotWho  string
}

func (e *VersionSkewError) Error() string {
	return fmt.Sprintf("cluster: version skew: member %s runs %q but %s tried to join with %q — a mixed ring cannot guarantee bit-identical results",
		e.HaveWho, e.Have, e.GotWho, e.Got)
}

// membership owns the member registry, the health-check probers and
// the live ring. The ring is rebuilt (and swapped under mu) on every
// state transition that changes the in-ring set.
type membership struct {
	probeInterval    time.Duration
	probeTimeout     time.Duration
	failThreshold    int
	successThreshold int
	vnodes           int
	seed             uint64
	client           *http.Client
	ctx              context.Context

	// onDead, when non-nil, runs (in the prober goroutine) after a
	// member transitions to dead — the router hooks job re-homing here.
	onDead func(name string)
	// onChange runs after any in-ring set change.
	onChange func()

	mu      sync.Mutex
	members map[string]*Member //redhip:guardedby mu
	ring    *Ring              //redhip:guardedby mu
	probing map[string]bool    //redhip:guardedby mu // members with a live prober goroutine
}

func newMembership(ctx context.Context, o Options, client *http.Client) *membership {
	return &membership{
		probeInterval:    o.ProbeInterval,
		probeTimeout:     o.ProbeTimeout,
		failThreshold:    o.FailThreshold,
		successThreshold: o.SuccessThreshold,
		vnodes:           o.Vnodes,
		seed:             o.Seed,
		client:           client,
		ctx:              ctx,
		members:          make(map[string]*Member),
		ring:             NewRing(nil, o.Vnodes),
		probing:          make(map[string]bool),
	}
}

// register admits a replica to the membership (state joining; the ring
// waits for its first passing probe) and starts its prober, which
// probes at once. A name re-registering updates its URL/version in
// place — replicas re-announce after losing router contact, and a
// restarted replica reuses its name — and its existing prober checks
// it at the next timed probe, so re-registration never shortens the
// probe spacing that the advertised dead-declaration floor assumes.
// Version skew is refused: if any non-dead member runs a different
// version, the newcomer is rejected; if only DEAD members carry the old
// version they are evicted instead (a rolling upgrade replacing crashed
// replicas must not be wedged by their ghosts — and should one such
// ghost actually be alive, its next re-registration gets the same skew
// check against the new ring).
func (ms *membership) register(name, baseURL, vers string) (*Member, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var evict []string
	for _, m := range ms.members {
		mv := m.versionNow()
		if m.Name == name || mv == vers {
			continue
		}
		if m.stateNow() == MemberDead {
			evict = append(evict, m.Name)
			continue
		}
		return nil, &VersionSkewError{Have: mv, HaveWho: m.Name, Got: vers, GotWho: name}
	}
	for _, stale := range evict {
		// Clearing the probing flag lets a re-registration of this name
		// start a fresh prober; the evicted member's own prober notices
		// it is detached (members[name] no longer points at it) and
		// exits on its next wake-up.
		delete(ms.members, stale)
		delete(ms.probing, stale)
	}
	m := ms.members[name]
	if m == nil {
		m = &Member{Name: name, baseURL: baseURL, version: vers, state: MemberJoining}
		ms.members[name] = m
	} else {
		m.mu.Lock()
		m.baseURL = baseURL
		m.version = vers
		if m.state == MemberDead {
			m.state = MemberJoining
			m.fails, m.successes = 0, 0
		}
		m.mu.Unlock()
	}
	ms.rebuildRingLocked()
	if !ms.probing[name] {
		ms.probing[name] = true
		go ms.probeLoop(m)
	}
	return m, nil
}

// rebuildRingLocked recomputes the ring from the current in-ring set.
func (ms *membership) rebuildRingLocked() {
	var ready []string
	for _, m := range ms.members {
		if m.stateNow().inRing() {
			ready = append(ready, m.Name)
		}
	}
	ms.ring = NewRing(ready, ms.vnodes)
}

// Ring returns the current ring snapshot.
func (ms *membership) Ring() *Ring {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.ring
}

// get looks a member up by name.
func (ms *membership) get(name string) *Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.members[name]
}

// list snapshots all members sorted by name.
func (ms *membership) list() []*Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]*Member, 0, len(ms.members))
	for _, m := range ms.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// probeLoop health-checks one member for the router's lifetime:
// it probes at once, so a member enters the ring one round trip after
// registering, then waits a deterministic, jittered interval — splitmix64
// over (seed, member, wait index) scales the base interval into
// [0.75, 1.25) so a fleet of probers never phase-locks, yet a replayed
// drill probes at identical offsets. Probes continue in every state: dead members heal back to
// ready after SuccessThreshold consecutive passes.
func (ms *membership) probeLoop(m *Member) {
	for seq := uint64(0); ; seq++ {
		ms.mu.Lock()
		alive := ms.members[m.Name] == m
		ms.mu.Unlock()
		if !alive || ms.ctx.Err() != nil {
			// The router is shutting down, or register() evicted this
			// member: a namesake that re-registers gets its own Member and
			// prober, so this loop must die rather than probe a detached
			// ghost forever.
			return
		}
		ms.probe(m)
		jitter := 0.75 + 0.5*unitFloat(ms.seed, m.Name, seq)
		timer := time.NewTimer(time.Duration(float64(ms.probeInterval) * jitter))
		select {
		case <-ms.ctx.Done():
		case <-timer.C:
		}
		timer.Stop()
	}
}

// probe runs one health check and applies its verdict to the state
// machine, rebuilding the ring and firing hooks on transitions. A
// verdict on a URL the member has left by re-registering while the
// probe was in flight is dropped: it says nothing about the replica
// now at the new URL, and a stale failure would undo register's reset
// of a dead member to joining.
func (ms *membership) probe(m *Member) {
	url := m.baseURLNow()
	ctx, cancel := context.WithTimeout(ms.ctx, ms.probeTimeout)
	verdict, reasons := ms.checkReadyz(ctx, url)
	cancel()

	m.mu.Lock()
	if m.baseURL != url {
		m.mu.Unlock()
		return
	}
	old := m.state
	m.lastProbe = time.Now()
	switch verdict {
	case probePass:
		m.fails = 0
		m.reasons = nil
		if old == MemberDead {
			m.successes++
			if m.successes >= ms.successThreshold {
				m.state = MemberReady
			}
		} else {
			m.successes = 0
			m.state = MemberReady
		}
	case probeDraining, probeUnready:
		// The replica answered: it is alive but refusing new work. Not a
		// step toward dead — and an answer from a dead-marked member is
		// recovery in progress, so it resets the failure streak too.
		m.fails = 0
		m.reasons = reasons
		if old != MemberDead {
			if verdict == probeDraining {
				m.state = MemberDraining
			} else {
				m.state = MemberUnready
			}
		}
	case probeFail:
		m.successes = 0
		m.fails++
		m.reasons = reasons
		if m.fails >= ms.failThreshold {
			m.state = MemberDead
		}
	}
	newState := m.state
	m.mu.Unlock()

	if newState == old {
		return
	}
	ms.mu.Lock()
	alive := ms.members[m.Name] == m
	if alive {
		ms.rebuildRingLocked()
	}
	ms.mu.Unlock()
	if !alive {
		// Evicted between the probe and its verdict: a detached ghost
		// must not fire hooks — onDead would re-home jobs owned by the
		// live namesake member.
		return
	}
	if ms.onChange != nil {
		ms.onChange()
	}
	if newState == MemberDead && ms.onDead != nil {
		ms.onDead(m.Name)
	}
}

type probeVerdict int

const (
	probePass probeVerdict = iota
	probeDraining
	probeUnready
	probeFail
)

// checkReadyz GETs baseURL's /readyz, marking the request as a
// router probe (the header renews the replica's lease) and classifying
// the answer. Transport errors and non-200/503 codes are failures; a
// 503 whose serve.Readiness body names serve.ReasonStopping is
// draining; any other 503 is unready. The reasons are what let the
// router tell a draining replica (let jobs finish) from a shedding one
// (jobs fine) from a dead one (re-home jobs), which a bare status code
// cannot.
func (ms *membership) checkReadyz(ctx context.Context, baseURL string) (probeVerdict, []string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/readyz", nil)
	if err != nil {
		return probeFail, []string{"probe: " + err.Error()}
	}
	req.Header.Set(ProbeHeader, "1")
	resp, err := ms.client.Do(req)
	if err != nil {
		return probeFail, []string{"probe: " + err.Error()}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	switch resp.StatusCode {
	case http.StatusOK:
		return probePass, nil
	case http.StatusServiceUnavailable:
		var rb serve.Readiness
		if err := json.Unmarshal(body, &rb); err != nil {
			return probeUnready, []string{"unparseable readyz body"}
		}
		for _, r := range rb.Reasons {
			if r == serve.ReasonStopping {
				return probeDraining, rb.Reasons
			}
		}
		return probeUnready, rb.Reasons
	default:
		return probeFail, []string{fmt.Sprintf("probe: readyz status %d", resp.StatusCode)}
	}
}

// unitFloat hashes (seed, name, seq) into [0, 1) deterministically —
// the probe-jitter source.
func unitFloat(seed uint64, name string, seq uint64) float64 {
	h := seed ^ hash64(name)
	z := h ^ (seq * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
