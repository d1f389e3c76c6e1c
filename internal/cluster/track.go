package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"redhip/internal/serve"
)

// routedJob is the router's view of one submitted spec: which replica
// runs it now (assignments are numbered by epoch — every re-home bumps
// it, so a stale watcher or a racing re-homer can detect it lost), the
// mirrored event log clients stream from, and the terminal outcome.
type routedJob struct {
	ID   string
	Key  string
	Spec serve.Spec // normalised; re-homes forward it verbatim so the key cannot drift

	mu              sync.Mutex
	state           serve.State        //redhip:guardedby mu
	errMsg          string             //redhip:guardedby mu
	results         json.RawMessage    //redhip:guardedby mu // replica /results bytes, verbatim
	member          string             //redhip:guardedby mu // current assignment ("" while placing)
	replicaJobID    string             //redhip:guardedby mu
	epoch           int                //redhip:guardedby mu // 0 = never placed; bumps per (re)placement
	lastMirrored    int                //redhip:guardedby mu // replica event ID last mirrored this epoch
	streamCancel    context.CancelFunc //redhip:guardedby mu // aborts the current epoch's SSE follow
	rehomes         int                //redhip:guardedby mu
	submissions     int                //redhip:guardedby mu
	cancelRequested bool               //redhip:guardedby mu
	submitted       time.Time          //redhip:guardedby mu
	finished        time.Time          //redhip:guardedby mu
	// log is bound to mu: appends happen under it, Subscribe takes it.
	log serve.EventLog
}

// newRoutedJob is the table's constructor for a fresh submission: queued,
// one submission, its "queued" event already in the log.
func newRoutedJob(id, key string, spec serve.Spec, now time.Time) *routedJob {
	j := &routedJob{
		ID:          id,
		Key:         key,
		Spec:        spec,
		state:       serve.StateQueued,
		submissions: 1,
		submitted:   now,
	}
	j.log.Bind(&j.mu)
	j.mu.Lock()
	j.log.AppendLocked("queued", serve.TerminalData{State: serve.StateQueued}, false)
	j.mu.Unlock()
	return j
}

// routedData is the payload of the router-authored "routed" event.
type routedData struct {
	Replica      string `json:"replica"`
	ReplicaJobID string `json:"replica_job_id"`
}

// rehomedData is the payload of the router-authored "rehomed" event.
type rehomedData struct {
	From   string `json:"from"`
	Reason string `json:"reason"`
}

// beginEpoch advances from the given epoch to the next, clearing the
// previous assignment, setting the state back to queued for the next
// replica and aborting the old stream. It is the single
// arbiter between racing re-homers (the dead-member scan, a watcher
// that saw an unexpected cancel, a placement that raced a death): only
// the caller whose `from` still matches wins the right to place.
func (j *routedJob) beginEpoch(from int) (int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.epoch != from {
		return 0, false
	}
	j.epoch++
	j.state = serve.StateQueued
	j.member = ""
	j.replicaJobID = ""
	j.lastMirrored = 0
	if j.streamCancel != nil {
		j.streamCancel()
		j.streamCancel = nil
	}
	return j.epoch, true
}

// assign records the epoch's placement; false if the epoch moved on.
func (j *routedJob) assign(epoch int, member, rid string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.epoch != epoch {
		return false
	}
	j.member = member
	j.replicaJobID = rid
	return true
}

// assignment returns the epoch's placement, if it is still current.
func (j *routedJob) assignment(epoch int) (member, rid string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.epoch != epoch {
		return "", "", false
	}
	return j.member, j.replicaJobID, true
}

// current snapshots (member, epoch) for the dead-member scan.
func (j *routedJob) current() (member string, epoch int, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.member, j.epoch, j.state.Terminal()
}

// setStreamCancel installs the cancel func that aborts this epoch's
// SSE follow; beginEpoch invokes it, which is what unhooks a watcher
// blocked reading from a partitioned (hung, not closed) connection.
func (j *routedJob) setStreamCancel(epoch int, cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.epoch != epoch {
		return false
	}
	j.streamCancel = cancel
	return true
}

// mirror copies one replica event into the router log with a
// router-side ID. Replica event IDs restart at 1 on every reconnect
// replay and every re-home; lastMirrored dedups within an epoch, and
// beginEpoch's reset deliberately lets the next replica's replay
// through — after a hand-off the stream narrates the job's fresh
// queued/running life on the new replica, prefixed by the "rehomed"
// marker. A "running" event also moves the routed job's state to
// running, in the same hold as its log entry, so GET /v1/jobs/{id}
// agrees with the event stream.
func (j *routedJob) mirror(epoch int, ev serve.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.epoch != epoch || ev.ID <= j.lastMirrored {
		return
	}
	j.lastMirrored = ev.ID
	if ev.Type == string(serve.StateRunning) {
		j.state = serve.StateRunning
	}
	j.log.AppendRawLocked(ev.Type, ev.Data, false)
}

// appendEvent publishes a router-authored non-terminal event.
func (j *routedJob) appendEvent(typ string, payload any) {
	j.mu.Lock()
	j.log.AppendLocked(typ, payload, false)
	j.mu.Unlock()
}

// noteRehome counts a hand-off and publishes its marker event.
func (j *routedJob) noteRehome(from, reason string) {
	j.mu.Lock()
	j.rehomes++
	j.log.AppendLocked("rehomed", rehomedData{From: from, Reason: reason}, false)
	j.mu.Unlock()
}

// requestCancel flags the job so terminal "cancelled" events are
// honoured (not treated as a fence to re-home from) and re-homers
// stand down. It returns the current placement for forwarding.
func (j *routedJob) requestCancel() (member, rid string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelRequested = true
	return j.member, j.replicaJobID
}

func (j *routedJob) isCancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// Attach records one more deduplicated submission.
func (j *routedJob) Attach() {
	j.mu.Lock()
	j.submissions++
	j.mu.Unlock()
}

// Terminal reports whether the routed job reached an end state.
func (j *routedJob) Terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// RoutedStatus is the JSON shape of the router's GET /v1/jobs/{id}.
type RoutedStatus struct {
	ID           string          `json:"id"`
	Key          string          `json:"key"`
	State        serve.State     `json:"state"`
	Error        string          `json:"error,omitempty"`
	Spec         serve.Spec      `json:"spec"`
	Replica      string          `json:"replica,omitempty"`
	ReplicaJobID string          `json:"replica_job_id,omitempty"`
	Rehomes      int             `json:"rehomes"`
	Submissions  int             `json:"submissions"`
	SubmittedAt  time.Time       `json:"submitted_at"`
	FinishedAt   *time.Time      `json:"finished_at,omitempty"`
	Results      json.RawMessage `json:"results,omitempty"`
}

func (j *routedJob) status(withResults bool) RoutedStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := RoutedStatus{
		ID:           j.ID,
		Key:          j.Key,
		State:        j.state,
		Error:        j.errMsg,
		Spec:         j.Spec,
		Replica:      j.member,
		ReplicaJobID: j.replicaJobID,
		Rehomes:      j.rehomes,
		Submissions:  j.submissions,
		SubmittedAt:  j.submitted,
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if withResults && j.state == serve.StateDone {
		st.Results = j.results
	}
	return st
}

// finish applies the terminal transition exactly once: state, result
// bytes and the terminal event land under one hold of j.mu, and the
// current epoch's stream follow is aborted. It reports whether this
// call won.
func (j *routedJob) finish(state serve.State, errMsg string, results json.RawMessage) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.results = results
	j.finished = time.Now()
	if j.streamCancel != nil {
		j.streamCancel()
		j.streamCancel = nil
	}
	j.log.AppendLocked(string(state), serve.TerminalData{State: state, Error: errMsg}, true)
	return true
}

// finalizeRouted applies a routed job's terminal transition exactly
// once and counts it. A done job keeps its key — that is the router's
// result cache; a failed or cancelled one releases it in the same
// table-lock hold as the transition (Table.FinishRelease), so no
// resubmission can deduplicate onto it in between.
func (rt *Router) finalizeRouted(j *routedJob, state serve.State, errMsg string, results json.RawMessage) bool {
	finish := func() bool { return j.finish(state, errMsg, results) }
	var won bool
	if state == serve.StateDone {
		won = finish()
	} else {
		won = rt.jobs.FinishRelease(j.Key, j, finish)
	}
	if won {
		rt.metrics.jobs.Inc(state)
	}
	return won
}

// --- watching ------------------------------------------------------------------

// startWatcher follows one epoch's replica-side job until it resolves.
func (rt *Router) startWatcher(j *routedJob, epoch int) {
	rt.watcherWG.Add(1)
	go func() {
		defer rt.watcherWG.Done()
		rt.watch(j, epoch)
	}()
}

// watch follows the job's replica SSE stream, reconnecting (and
// deduplicating the replay via lastMirrored) until a terminal event
// resolves the job or the epoch is taken away by a re-home. A member
// declared dead ends the watch silently: the dead-member scan owns
// re-homing, so death is handled exactly once whether the watcher or
// the prober saw it first.
func (rt *Router) watch(j *routedJob, epoch int) {
	member, rid, ok := j.assignment(epoch)
	if !ok {
		return
	}
	m := rt.members.get(member)
	if m == nil {
		return // member evicted (version upgrade); the scan re-homed its jobs
	}
	for {
		if rt.baseCtx.Err() != nil {
			return
		}
		if _, _, ok := j.assignment(epoch); !ok {
			return
		}
		done, err := rt.followStream(j, epoch, m, rid)
		if done {
			return
		}
		if m.stateNow() == MemberDead {
			return
		}
		if err != nil {
			rt.metrics.watchReconnects.Inc()
		}
		select {
		case <-rt.baseCtx.Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// followStream opens one SSE connection to the replica and consumes it:
// non-terminal events mirror into the router log ("running" also sets
// the routed job's state, see mirror); a terminal event
// resolves the job (done fetches results first; an unexpected
// cancelled — a fence or a drain kill, not a client DELETE — hands the
// job to a re-home instead). Returns done=true when the job was
// resolved or this epoch is finished with; an error means the stream
// broke pre-terminal and the caller should reconnect.
func (rt *Router) followStream(j *routedJob, epoch int, m *Member, rid string) (bool, error) {
	ctx, cancel := context.WithCancel(rt.baseCtx)
	defer cancel()
	if !j.setStreamCancel(epoch, cancel) {
		return true, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.baseURLNow()+"/v1/jobs/"+rid+"/events", nil)
	if err != nil {
		return false, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The replica no longer knows the job (it restarted): the work is
		// provably gone there, so re-home rather than retry forever.
		if next, ok := j.beginEpoch(epoch); ok {
			rt.goRehome(j, next, m.Name, "replica forgot the job (restart)")
		}
		return true, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events stream status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		ev, err := serve.ReadSSE(br)
		if err != nil {
			return false, err
		}
		switch ev.Type {
		case string(serve.StateDone):
			return true, rt.completeDone(j, epoch, m, rid)
		case string(serve.StateFailed):
			var td serve.TerminalData
			_ = json.Unmarshal(ev.Data, &td)
			rt.finalizeRouted(j, serve.StateFailed, td.Error, nil)
			return true, nil
		case string(serve.StateCancelled):
			if j.isCancelRequested() {
				var td serve.TerminalData
				_ = json.Unmarshal(ev.Data, &td)
				rt.finalizeRouted(j, serve.StateCancelled, td.Error, nil)
				return true, nil
			}
			// The replica cancelled a job nobody asked it to cancel: it
			// fenced (lost its router lease) or is draining. Either way
			// the work must finish somewhere else.
			if next, ok := j.beginEpoch(epoch); ok {
				rt.goRehome(j, next, m.Name, "replica cancelled the job unexpectedly")
			}
			return true, nil
		default:
			j.mirror(epoch, ev)
		}
	}
}

// completeDone fetches the done job's results from its replica and
// finalises. The fetch retries transport errors (the result exists;
// losing it to a blip would force a pointless re-execution) but a 404
// or 409 means the replica lost or rolled back the job — re-home.
func (rt *Router) completeDone(j *routedJob, epoch int, m *Member, rid string) error {
	for attempt := 0; ; attempt++ {
		if rt.baseCtx.Err() != nil {
			return nil
		}
		if _, _, ok := j.assignment(epoch); !ok {
			return nil
		}
		body, code, err := rt.fetchResults(m, rid)
		if err == nil && code == http.StatusOK {
			if rt.finalizeRouted(j, serve.StateDone, "", body) {
				m.noteDone()
			}
			return nil
		}
		if err == nil {
			if next, ok := j.beginEpoch(epoch); ok {
				rt.goRehome(j, next, m.Name, fmt.Sprintf("results fetch got status %d", code))
			}
			return nil
		}
		select {
		case <-rt.baseCtx.Done():
			return nil
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func (rt *Router) fetchResults(m *Member, rid string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(rt.baseCtx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.baseURLNow()+"/v1/jobs/"+rid+"/results", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}

// --- re-homing -----------------------------------------------------------------

// onMemberDead re-homes every non-terminal job assigned to the dead
// member. It runs in the prober goroutine; each job's re-home claims
// its epoch first, so a watcher acting on the same death (or a client
// cancel) cannot double-place.
func (rt *Router) onMemberDead(name string) {
	for _, j := range rt.jobs.List() {
		member, epoch, terminal := j.current()
		if terminal || member != name {
			continue
		}
		if next, ok := j.beginEpoch(epoch); ok {
			rt.goRehome(j, next, name, "replica "+name+" declared dead")
		}
	}
}

// goRehome launches the re-placement for an epoch already claimed via
// beginEpoch.
func (rt *Router) goRehome(j *routedJob, epoch int, from, reason string) {
	rt.metrics.rehomes.Inc()
	j.noteRehome(from, reason)
	rt.watcherWG.Add(1)
	go func() {
		defer rt.watcherWG.Done()
		rt.place(j, epoch)
	}()
}

// placement is the outcome of one placeOnce attempt. member is ""
// when the ring had no ready owner. Otherwise err is a transport failure
// reaching member, rej is member's verbatim rejection, or neither is set
// and placed says whether the job now runs on member (false: the epoch
// moved on before the assignment).
type placement struct {
	member string
	err    error
	rej    *replicaRejection
	placed bool
}

// placeOnce makes one placement attempt for an epoch already claimed via
// beginEpoch: it submits the normalised spec to the ring's current owner
// for the job's key, assigns the epoch, publishes the "routed" event,
// and starts the watcher — or, when the owner died between the ring read
// and the assignment, claims the next epoch and re-homes, because the
// dead-member scan may have run before the assignment existed.
func (rt *Router) placeOnce(ctx context.Context, j *routedJob, epoch int) placement {
	owner := rt.members.Ring().Owner(j.Key)
	if owner == "" {
		return placement{}
	}
	m := rt.members.get(owner)
	if m == nil {
		// The ring snapshot named an owner that has since died and been
		// evicted: same answer as an empty ring.
		return placement{}
	}
	rid, rej, err := rt.submitToReplica(ctx, m, j.Spec)
	if err != nil || rej != nil {
		return placement{member: m.Name, err: err, rej: rej}
	}
	if !j.assign(epoch, m.Name, rid) {
		return placement{member: m.Name}
	}
	j.appendEvent("routed", routedData{Replica: m.Name, ReplicaJobID: rid})
	if m.stateNow() == MemberDead {
		if next, ok := j.beginEpoch(epoch); ok {
			rt.goRehome(j, next, m.Name, "owner died during placement")
		}
	} else {
		rt.startWatcher(j, epoch)
	}
	return placement{member: m.Name, placed: true}
}

// place re-places a job for an epoch claimed via beginEpoch, retrying
// placeOnce around empty rings, unreachable owners and transient
// rejections until it lands — idempotent because the spec key is the
// identity: a replica that already holds the key (say it completed the
// job before an earlier partition healed) dedups onto its cached
// result instead of executing again, and execution itself is
// deterministic, so whichever replica ends up running the spec
// produces bit-identical results.
func (rt *Router) place(j *routedJob, epoch int) {
	for {
		if rt.baseCtx.Err() != nil {
			return
		}
		j.mu.Lock()
		lost := j.state.Terminal() || j.epoch != epoch
		cancelled := j.cancelRequested
		j.mu.Unlock()
		if lost {
			return
		}
		if cancelled {
			rt.finalizeRouted(j, serve.StateCancelled, "cancelled during re-home", nil)
			return
		}
		pl := rt.placeOnce(rt.baseCtx, j, epoch)
		delay := 200 * time.Millisecond
		switch {
		case pl.member == "" || pl.err != nil:
			// No ready owner, or it was unreachable: wait for the ring.
		case pl.rej != nil:
			if pl.rej.code == http.StatusBadRequest {
				// The spec was valid once (it was admitted before); a 400
				// now is a version/config divergence — surface it.
				rt.finalizeRouted(j, serve.StateFailed, "re-home rejected: "+strings.TrimSpace(string(pl.rej.body)), nil)
				return
			}
			delay = 500 * time.Millisecond
			if s, aerr := strconv.Atoi(pl.rej.retryAfter); aerr == nil && s >= 1 {
				if s > 2 {
					s = 2 // clamp: re-homed work should land fast
				}
				delay = time.Duration(s) * time.Second
			}
		default: // placed, or the epoch moved on
			return
		}
		if !rt.sleep(delay) {
			return
		}
	}
}

// sleep waits d or until shutdown; false on shutdown.
func (rt *Router) sleep(d time.Duration) bool {
	select {
	case <-rt.baseCtx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
