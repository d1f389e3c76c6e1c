package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// scriptClock is a scripted server clock: each reading returns the
// current instant and then moves it on by step. It remembers every
// instant it handed out, so a test can tell a stamp taken from the
// script from one taken from the wall clock.
type scriptClock struct {
	mu     sync.Mutex
	at     time.Time
	step   time.Duration
	issued map[int64]bool
}

func newScriptClock(at time.Time, step time.Duration) *scriptClock {
	return &scriptClock{at: at, step: step, issued: map[int64]bool{}}
}

func (c *scriptClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.at
	c.at = c.at.Add(c.step)
	c.issued[t.UnixNano()] = true
	return t
}

func (c *scriptClock) set(at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = at
}

func (c *scriptClock) handedOut(t time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.issued[t.UnixNano()]
}

// TestJobStampsFromServerClock: every job stamp comes from the
// server's clock — creation, start and finish of a job that runs, the
// finish of a job cancelled in the queue, and the finish of one the
// shutdown drain cancels — so created <= started <= finished holds on
// the script.
func TestJobStampsFromServerClock(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	clk := newScriptClock(time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC), time.Second)
	ts.s.now = clk.now
	release := make(chan struct{})
	held := make(chan struct{}, 1)
	var once sync.Once
	ts.s.testHookJobStart = func(*Job) {
		once.Do(func() {
			held <- struct{}{}
			<-release
		})
	}

	ran := ts.submit(specWithSeed(1), http.StatusAccepted)
	<-held
	cancelled := ts.submit(specWithSeed(2), http.StatusAccepted)
	ts.deleteJob(cancelled.ID)
	drained := ts.submit(specWithSeed(3), http.StatusAccepted)
	shut := make(chan error, 1)
	go func() { shut <- ts.s.Shutdown(context.Background()) }()
	ts.waitState(drained.ID, StateCancelled)
	close(release)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	check := func(id string, want State, wantStarted bool) {
		t.Helper()
		st := ts.waitState(id, want)
		stamps := []time.Time{st.SubmittedAt}
		if (st.StartedAt != nil) != wantStarted || st.FinishedAt == nil {
			t.Fatalf("%s: started %v, finished %v; want started=%v and a finish", id, st.StartedAt, st.FinishedAt, wantStarted)
		}
		if st.StartedAt != nil {
			stamps = append(stamps, *st.StartedAt)
		}
		stamps = append(stamps, *st.FinishedAt)
		for i, at := range stamps {
			if !clk.handedOut(at) {
				t.Errorf("%s: stamp %s did not come from the server clock", id, at)
			}
			if i > 0 && at.Before(stamps[i-1]) {
				t.Errorf("%s: stamps out of order: %v", id, stamps)
			}
		}
	}
	check(ran.ID, StateDone, true)
	check(cancelled.ID, StateCancelled, false)
	check(drained.ID, StateCancelled, false)
}

// TestLeaseAgeFromServerClock: renewLease measures the lease on the
// server's clock, so a scripted jump past the lease fences and a
// prompt probe does not — with no real waiting.
func TestLeaseAgeFromServerClock(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	t0 := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	clk := newScriptClock(t0, 0)
	ts.s.now = clk.now
	ts.s.leaseNanos.Store(int64(time.Second))

	ts.s.renewLease()
	clk.set(t0.Add(900 * time.Millisecond))
	ts.s.renewLease()
	if got := ts.s.LeaseFences(); got != 0 {
		t.Fatalf("LeaseFences = %d after probes inside the lease, want 0", got)
	}
	clk.set(t0.Add(2 * time.Second))
	ts.s.renewLease()
	if got := ts.s.LeaseFences(); got != 1 {
		t.Fatalf("LeaseFences = %d after a probe 1.1 s after the last, want 1", got)
	}
}

// TestCommitAfterLeaseGapFences: a job that reaches its commit point
// after a gap longer than the lease — the process was stopped, and no
// probe or watchdog tick has run since it resumed — ends cancelled, not
// done, and executions_done does not move. No watchdog runs here (no
// RouterURL), so only the commit-point check in finalize can catch it.
func TestCommitAfterLeaseGapFences(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	t0 := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	clk := newScriptClock(t0, 0)
	ts.s.now = clk.now
	ts.s.leaseNanos.Store(int64(time.Second))
	ts.s.renewLease() // a router probe at t0 arms the lease

	release := make(chan struct{})
	held := make(chan struct{}, 1)
	ts.s.testHookJobStart = func(*Job) {
		held <- struct{}{}
		<-release
	}
	sub := ts.submit(smokeSpec(), http.StatusAccepted)
	<-held
	clk.set(t0.Add(2 * time.Second)) // stopped past the lease, then resumed
	close(release)

	st := ts.waitState(sub.ID, StateCancelled)
	if st.Error != "router lease lost: job fenced at commit" {
		t.Errorf("cancelled with %q, want the commit-point fence", st.Error)
	}
	if got := ts.s.ExecutionsDone(); got != 0 {
		t.Fatalf("ExecutionsDone = %d after a commit past the lease, want 0", got)
	}
	if got := ts.s.LeaseFences(); got != 1 {
		t.Fatalf("LeaseFences = %d, want 1: the stale commit fences the replica once", got)
	}
	// The fence cleared the lease: the next prompt probe re-arms it
	// without fencing again, and a job then commits done.
	ts.s.renewLease()
	ts.s.testHookJobStart = nil
	ts.runDone(specWithSeed(2))
	if got := ts.s.LeaseFences(); got != 1 {
		t.Fatalf("LeaseFences = %d after a prompt probe, want still 1", got)
	}
}

// TestCommitFencesWhenGenerationMoved: a job started under one lease
// generation cannot commit done after a fence moved it on, even when
// the lease reads fresh again by then (a late probe fenced and then
// renewed it).
func TestCommitFencesWhenGenerationMoved(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	j := newJob("job-x", smokeSpec(), ts.s.now())
	if !j.start(func() {}, ts.s.now(), ts.s.leaseGen.Load()) {
		t.Fatal("start refused a queued job")
	}
	ts.s.fenceJobs()
	if !ts.s.finalize(j, StateDone, "", nil, ts.s.now()) {
		t.Fatal("finalize lost the transition")
	}
	if st := j.snapshot(false); st.State != StateCancelled {
		t.Fatalf("job committed %q after a fence, want cancelled", st.State)
	}
	if got := ts.s.ExecutionsDone(); got != 0 {
		t.Fatalf("ExecutionsDone = %d, want 0", got)
	}
}
