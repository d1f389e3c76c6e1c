//go:build faultinject

// Chaos harness: replay a seeded fault schedule against a live server
// under -race and assert the resilience invariants the production
// build promises — an injected fault fails exactly its own job, with no
// leaked worker slot, no wedged dedup key, no truncated event log and
// no over-counted progress, and every job that succeeds (during the
// chaos or on resubmission after it) is bit-identical to a fault-free
// reference. Runs only with `go test -tags faultinject`.
package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"redhip/internal/faultinject"
)

// chaosSpec returns the i-th distinct chaos job: a smoke-geometry
// single-scheme run.
func chaosSpec(i int) Spec { return specWithSeed(uint64(1000 + i)) }

// canonicalResults renders a job's results with nondeterministic
// host-side measurements excluded (PerfStats is json:"-"), so equality
// is bit-equality of the simulated outcome.
func canonicalResults(t *testing.T, st Status) []byte {
	t.Helper()
	b, err := json.Marshal(st.Results)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return b
}

// TestChaosSweep is the acceptance drill from DESIGN.md §12: 200
// submissions against a server whose runner, trace store and worker
// paths all fail on a deterministic schedule.
func TestChaosSweep(t *testing.T) {
	const jobs = 200
	in := faultinject.New(0xC0FFEE,
		faultinject.Rule{Point: faultinject.PointExperimentRun, Prob: 0.15, Err: "chaos: run error"},
		faultinject.Rule{Point: faultinject.PointExperimentRun, Prob: 0.05, Panic: "chaos: run panic"},
		faultinject.Rule{Point: faultinject.PointTracestoreMaterialize, Prob: 0.2, Err: "chaos: materialisation error"},
		faultinject.Rule{Point: faultinject.PointServeWorker, Prob: 0.3, Delay: time.Millisecond},
	)
	// The tracestore point fires through the process-global injector, so
	// the schedule is installed globally; the server picks it up the
	// same way (Options.Fault nil -> faultinject.Active()).
	prev := faultinject.Set(in)
	t.Cleanup(func() { faultinject.Set(prev) })

	ts := newTestServer(t, Options{
		Workers:    4,
		QueueDepth: 256,
		// The drill wants every job admitted and executed to a terminal
		// state: shed 503s would just thin the sample.
		MemoryBudgetBytes: -1,
	})

	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		sub := ts.submit(chaosSpec(i), http.StatusAccepted)
		if sub.Deduped {
			t.Fatalf("chaos spec %d unexpectedly deduped", i)
		}
		ids[i] = sub.ID
	}

	final := make([]Status, jobs)
	var failed []int
	for i, id := range ids {
		st := ts.status(id)
		deadline := time.Now().Add(120 * time.Second)
		for !st.State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s wedged in %q — leaked slot", id, st.State)
			}
			time.Sleep(2 * time.Millisecond)
			st = ts.status(id)
		}
		switch st.State {
		case StateDone:
		case StateFailed:
			failed = append(failed, i)
		default:
			t.Fatalf("job %s ended %q under chaos (nothing cancels)", id, st.State)
		}
		// Progress counts each run once: a done job finished every
		// planned run, and no job reports more runs than it planned.
		if st.Completed > st.Total || (st.State == StateDone && st.Completed != st.Total) {
			t.Fatalf("job %s ended %q with completed=%d total=%d", id, st.State, st.Completed, st.Total)
		}
		final[i] = st
	}
	t.Logf("chaos: %d/%d jobs failed terminally, panics=%g",
		len(failed), jobs, ts.metricValue("redhip_serve_worker_panics_total"))
	if len(failed) == 0 {
		t.Fatalf("no job failed under a 20%%+ fault schedule — injection not wired")
	}

	// Every event log must be contiguous from 1 with exactly one
	// terminal event, and it must be last: a truncated or double-closed
	// SSE replay is how a client sees a corrupted job.
	for i, id := range ids {
		replay, live, unsub := ts.s.store.Get(id).log.Subscribe()
		unsub()
		if _, ok := <-live; ok {
			t.Fatalf("job %s: live channel open after terminal state", id)
		}
		terminals := 0
		for k, ev := range replay {
			if ev.ID != k+1 {
				t.Fatalf("job %s: event %d has id %d — log truncated or reordered", id, k, ev.ID)
			}
			switch ev.Type {
			case "done", "failed", "cancelled":
				terminals++
			}
		}
		if terminals != 1 || len(replay) == 0 {
			t.Fatalf("job %s: %d terminal events in a %d-event log", id, terminals, len(replay))
		}
		last := replay[len(replay)-1].Type
		if last != string(final[i].State) {
			t.Fatalf("job %s: last event %q, state %q", id, last, final[i].State)
		}
	}

	// End of chaos. Everything below must behave like a healthy server.
	in.Stop()

	// No leaked worker slots: one fresh job per worker completes.
	for i := 0; i < 4; i++ {
		sub := ts.submit(specWithSeed(uint64(5000+i)), http.StatusAccepted)
		ts.waitState(sub.ID, StateDone)
	}

	// No wedged dedup keys: every terminally-failed spec resubmits as a
	// fresh job — and now succeeds.
	for _, i := range failed {
		sub := ts.submit(chaosSpec(i), http.StatusAccepted)
		if sub.Deduped {
			t.Fatalf("failed spec %d still holds its dedup key", i)
		}
		final[i] = ts.waitState(sub.ID, StateDone)
	}

	// Bit-identical results: a fault-free reference server must agree
	// with every job that succeeded through (or after) the chaos.
	ref := newTestServer(t, Options{Workers: 4, QueueDepth: 256})
	for i := 0; i < jobs; i++ {
		sub := ref.submit(chaosSpec(i), http.StatusAccepted)
		want := ref.waitState(sub.ID, StateDone)
		if got, ref := canonicalResults(t, final[i]), canonicalResults(t, want); !bytes.Equal(got, ref) {
			t.Fatalf("job %d: chaos-survivor results diverge from fault-free reference\nchaos: %s\nref:   %s", i, got, ref)
		}
	}
}

// TestChaosAdmitAndSSEPoints covers the two serve-layer points the
// sweep leaves quiet: an injected admission fault is a clean 503 (no
// residue — the same spec admits next try), and an injected SSE fault
// rejects the stream without touching the job.
func TestChaosAdmitAndSSEPoints(t *testing.T) {
	in := faultinject.New(7,
		faultinject.Rule{Point: faultinject.PointServeAdmit, Times: 1, Err: "chaos: admission fault"},
		faultinject.Rule{Point: faultinject.PointServeSSE, Times: 1, Err: "chaos: sse fault"},
	)
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Fault: in})

	resp := ts.submitRaw(specWithSeed(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected admission fault = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	sub := ts.submit(specWithSeed(1), http.StatusAccepted)
	if sub.Deduped {
		t.Fatalf("faulted admission left residue: retry deduped")
	}
	st := ts.waitState(sub.ID, StateDone)

	sse, err := http.Get(ts.web.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	sse.Body.Close()
	if sse.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected SSE fault = %d, want 503", sse.StatusCode)
	}
	sse, err = http.Get(ts.web.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events retry: %v", err)
	}
	defer sse.Body.Close()
	if sse.StatusCode != http.StatusOK {
		t.Fatalf("SSE after exhausted rule = %d, want 200", sse.StatusCode)
	}
	if st.State != StateDone {
		t.Fatalf("job disturbed by SSE fault: %q", st.State)
	}
}
