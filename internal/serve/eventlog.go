package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// EventLog is the append-only progress log shared by jobs, sweeps and
// the cluster router's routed jobs: a monotone event sequence plus live
// fan-out to subscribers, with replay-then-live semantics (late
// subscribers replay the log from the start, so no event is ever lost
// to subscription timing). Each log numbers its own events from 1, so
// the router's client-facing stream keeps counting monotonically across
// a re-home even though the new replica restarts at 1.
//
// The log has no mutex of its own: Bind ties it to its owner's mutex,
// methods with the Locked suffix require that mutex held, and Subscribe
// takes it. The owner can therefore make a state transition and its
// event land atomically — a subscriber can never observe a terminal
// state whose event is missing from the log.
type EventLog struct {
	mu     *sync.Mutex // the owner's mutex
	events []Event
	subs   map[chan Event]bool
	closed bool // a terminal event was appended; the log is complete
}

// Bind ties the log to the mutex its owner guards it with. Owners call
// it once, at construction.
func (l *EventLog) Bind(mu *sync.Mutex) { l.mu = mu }

// AppendLocked marshals payload and appends it as an event of type typ.
func (l *EventLog) AppendLocked(typ string, payload any, terminal bool) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(`{}`)
	}
	l.AppendRawLocked(typ, data, terminal)
}

// AppendRawLocked appends an event whose payload is already JSON (the
// router mirroring a replica's event) and fans it out to live
// subscribers. A subscriber too slow to keep up is dropped (its channel
// closed) rather than blocking the publisher; it can reconnect and
// replay. When terminal is true every remaining subscriber is closed
// after delivery — the log is complete.
func (l *EventLog) AppendRawLocked(typ string, data json.RawMessage, terminal bool) {
	if len(data) == 0 {
		data = json.RawMessage(`{}`)
	}
	ev := Event{ID: len(l.events) + 1, Type: typ, Data: data}
	l.events = append(l.events, ev)
	for ch := range l.subs {
		select {
		case ch <- ev:
		default:
			// Slow subscriber: drop it rather than block the publisher.
			// It can reconnect and replay the log.
			close(ch)
			delete(l.subs, ch)
		}
	}
	if terminal {
		l.closed = true
		for ch := range l.subs {
			close(ch)
			delete(l.subs, ch)
		}
	}
}

// Subscribe returns a copy of the log so far plus a live channel, which
// is closed after the terminal event (or at once when the log is
// already complete — replay is the whole story then). unsub detaches
// the subscriber early; it must be called when the consumer stops
// reading before the channel closes, and is harmless after.
func (l *EventLog) Subscribe() (replay []Event, live <-chan Event, unsub func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	replay = make([]Event, len(l.events))
	copy(replay, l.events)
	ch := make(chan Event, 256)
	if l.closed {
		close(ch)
		return replay, ch, func() {}
	}
	if l.subs == nil {
		l.subs = make(map[chan Event]bool)
	}
	l.subs[ch] = true
	return replay, ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.subs[ch] {
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// ServeEvents streams log as text/event-stream: the replay first, then
// live events until the terminal event closes the stream or the client
// goes away. It is the one handler body behind GET /v1/jobs/{id}/events,
// GET /v1/sweeps/{id}/events and the router's events endpoint.
func ServeEvents(w http.ResponseWriter, r *http.Request, log *EventLog) {
	fl, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, live, unsub := log.Subscribe()
	defer unsub()
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	fl.Flush()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return // terminal event delivered (or subscriber dropped)
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, ev Event) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data)
}

// ReadSSE parses one text/event-stream frame (id/event/data lines
// ended by a blank line) as ServeEvents writes them.
func ReadSSE(br *bufio.Reader) (Event, error) {
	var ev Event
	got := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if got {
				return ev, nil
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.ID, _ = strconv.Atoi(line[len("id: "):])
			got = true
		case strings.HasPrefix(line, "event: "):
			ev.Type = line[len("event: "):]
			got = true
		case strings.HasPrefix(line, "data: "):
			ev.Data = json.RawMessage(line[len("data: "):])
			got = true
		}
	}
}
