package serve

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// passLog records the pass workers testHookPassWorkers saw for each
// job.
type passLog struct {
	mu      sync.Mutex
	workers map[string]int
}

// recordPasses installs a pass hook on ts that logs every job and then
// runs then (nil: nothing) in the worker goroutine.
func recordPasses(ts *testServer, then func()) *passLog {
	l := &passLog{workers: map[string]int{}}
	ts.s.testHookPassWorkers = func(j *Job, workers int) {
		l.mu.Lock()
		l.workers[j.ID] = workers
		l.mu.Unlock()
		if then != nil {
			then()
		}
	}
	return l
}

// seen returns the pass workers logged for job id.
func (l *passLog) seen(t *testing.T, id string) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	w, ok := l.workers[id]
	if !ok {
		t.Fatalf("job %s never reached its pass", id)
	}
	return w
}

// fiveSchemeSpec is smokeSpec over all five schemes.
func fiveSchemeSpec(seed uint64) Spec {
	s := smokeSpec()
	s.Schemes = nil // normalize fills in all five
	s.Seed = seed
	return s
}

// TestPassWorkersLoneJob: a job runs one pass worker per scheme, up to
// GOMAXPROCS and an explicit IntraParallelism. The auto size is not
// divided across Workers.
func TestPassWorkersLoneJob(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name           string
		workers, intra int
		spec           Spec
		want           int
	}{
		{"auto, 2 workers, 5 schemes", 2, 0, fiveSchemeSpec(1), min(procs, 5)},
		{"auto, 2 workers, 2 schemes", 2, 0, smokeSpec(), min(procs, 2)},
		{"auto, 2 workers, 1 scheme", 2, 0, specWithSeed(1), 1},
		{"explicit 1, 5 schemes", 2, 1, fiveSchemeSpec(1), 1},
		{"explicit above GOMAXPROCS, 5 schemes", 1, procs + 1, fiveSchemeSpec(1), min(procs, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTestServer(t, Options{Workers: tc.workers, IntraParallelism: tc.intra})
			log := recordPasses(ts, nil)
			sub := ts.submit(tc.spec, http.StatusAccepted)
			ts.waitState(sub.ID, StateDone)
			if w := log.seen(t, sub.ID); w != tc.want {
				t.Errorf("job ran %d pass workers, want %d", w, tc.want)
			}
		})
	}
}

// TestPassWorkersBusyReplica: a job that starts while another is
// running sizes its pass like a lone job; the two passes share the
// CPUs instead of splitting them ahead of time.
func TestPassWorkersBusyReplica(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	release := make(chan struct{})
	held := make(chan struct{}, 1)
	var first atomic.Bool
	log := recordPasses(ts, func() {
		// Not a sync.Once: Once.Do would block the second job's hook
		// until the first returned.
		if first.CompareAndSwap(false, true) {
			held <- struct{}{}
			<-release
		}
	})
	a := ts.submit(fiveSchemeSpec(1), http.StatusAccepted)
	<-held
	b := ts.submit(fiveSchemeSpec(2), http.StatusAccepted)
	ts.waitState(b.ID, StateDone)
	close(release)
	ts.waitState(a.ID, StateDone)

	want := min(runtime.GOMAXPROCS(0), 5)
	if wa, wb := log.seen(t, a.ID), log.seen(t, b.ID); wa != want || wb != want {
		t.Errorf("held and concurrent jobs ran %d and %d pass workers, want %d each", wa, wb, want)
	}
}

// TestPassWorkersResultsUnchanged: a job on an auto-sized two-worker
// replica answers /results with the same bytes as a one-worker replica
// running the same spec on one pass worker.
func TestPassWorkersResultsUnchanged(t *testing.T) {
	results := func(opts Options, wantPass int) []byte {
		ts := newTestServer(t, opts)
		log := recordPasses(ts, nil)
		sub := ts.submit(fiveSchemeSpec(7), http.StatusAccepted)
		ts.waitState(sub.ID, StateDone)
		if w := log.seen(t, sub.ID); w != wantPass {
			t.Fatalf("%+v: job ran %d pass workers, want %d", opts, w, wantPass)
		}
		resp, err := http.Get(ts.web.URL + "/v1/jobs/" + sub.ID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET results = %d, %v", resp.StatusCode, err)
		}
		return raw
	}
	wide := results(Options{Workers: 2}, min(runtime.GOMAXPROCS(0), 5))
	solo := results(Options{Workers: 1, IntraParallelism: 1}, 1)
	if !bytes.Equal(wide, solo) {
		t.Fatalf("results of a multi-worker pass differ from a one-worker replica's:\n%s\nvs\n%s", wide, solo)
	}
}
