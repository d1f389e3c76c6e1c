package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentDedupSingleFlight is the subsystem's end-to-end
// acceptance check: N concurrent identical submissions resolve to one
// job, one experiment.Runner execution, and byte-identical result
// payloads for every client. Run it under -race to exercise the
// single-flight path.
func TestConcurrentDedupSingleFlight(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	const clients = 16

	spec, _ := json.Marshal(smokeSpec())
	ids := make([]string, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.web.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			var sub SubmitResponse
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Errorf("client %d: decode: %v", i, err)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d got job %s, client 0 got %s — dedup split the flight", i, ids[i], ids[0])
		}
	}

	ts.waitState(ids[0], StateDone)

	// Exactly one runner execution; the other 15 submissions were
	// deduplicated onto it.
	m := ts.s.metrics
	if got := m.runnerStarts.Load(); got != 1 {
		t.Fatalf("runner executions = %d, want 1", got)
	}
	if got := m.deduped.Load(); got != clients-1 {
		t.Fatalf("deduped = %d, want %d", got, clients-1)
	}
	if got := m.submitted.Load(); got != clients {
		t.Fatalf("submitted = %d, want %d", got, clients)
	}

	// Every client polling the job reads bit-identical bytes.
	first := ts.getRaw("/v1/jobs/" + ids[0])
	for i := 1; i < 4; i++ {
		if other := ts.getRaw("/v1/jobs/" + ids[0]); !bytes.Equal(first, other) {
			t.Fatalf("result payloads differ between reads:\n%s\n---\n%s", first, other)
		}
	}

	// A later identical submission is served from the result cache
	// without a new execution.
	late := ts.submit(smokeSpec(), http.StatusAccepted)
	if !late.Deduped || late.ID != ids[0] {
		t.Fatalf("post-completion submission not served from cache: %+v", late)
	}
	if m.runnerStarts.Load() != 1 {
		t.Fatalf("cache-served submission re-ran the job")
	}
}

// getRaw fetches a path and returns the body bytes.
func (ts *testServer) getRaw(path string) []byte {
	ts.t.Helper()
	resp, err := http.Get(ts.web.URL + path)
	if err != nil {
		ts.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ts.t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		ts.t.Fatalf("read %s: %v", path, err)
	}
	return raw
}

// TestSSEProgressBeforeTerminal subscribes to a running job's event
// stream and requires at least one progress event strictly before the
// terminal event — the ISSUE's streaming acceptance criterion.
func TestSSEProgressBeforeTerminal(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	ts.s.testHookJobStart = func(*Job) {
		started <- struct{}{}
		<-release
	}

	spec := smokeSpec() // two runs -> at least two progress events
	sub := ts.submit(spec, http.StatusAccepted)
	<-started // job is running, no runs finished yet

	resp, err := http.Get(ts.web.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	close(release)

	events := readSSE(t, resp.Body, 16)
	var sawProgress bool
	var terminalAt = -1
	for i, ev := range events {
		switch ev.Type {
		case "progress":
			if terminalAt >= 0 {
				t.Fatalf("progress event after terminal: %+v", events)
			}
			sawProgress = true
			var p progressData
			if err := json.Unmarshal([]byte(ev.Data), &p); err != nil {
				t.Fatalf("progress data: %v", err)
			}
			if p.Total != 2 || p.Completed < 1 || p.Completed > 2 {
				t.Fatalf("progress payload %+v", p)
			}
		case "done":
			terminalAt = i
		case "failed", "cancelled":
			t.Fatalf("job ended %s: %+v", ev.Type, ev)
		}
	}
	if !sawProgress {
		t.Fatalf("no progress event before terminal; events: %+v", events)
	}
	if terminalAt < 0 {
		t.Fatalf("no terminal event; events: %+v", events)
	}
	// Event IDs are the log positions: strictly increasing from 1.
	for i, ev := range events {
		if ev.ID != i+1 {
			t.Fatalf("event %d has id %d", i, ev.ID)
		}
	}
}

// TestSSEReplayAfterCompletion: a subscriber arriving after the job
// finished replays the full log, progress before terminal.
func TestSSEReplayAfterCompletion(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	sub := ts.submit(smokeSpec(), http.StatusAccepted)
	ts.waitState(sub.ID, StateDone)

	resp, err := http.Get(ts.web.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 16)
	if len(events) < 4 { // queued, running, 2x progress, done
		t.Fatalf("replayed %d events, want >= 4: %+v", len(events), events)
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("last replayed event = %q, want done", last.Type)
	}
	progress := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Type == "progress" {
			progress++
		}
	}
	if progress != 2 {
		t.Fatalf("replayed %d progress events, want 2", progress)
	}
}
