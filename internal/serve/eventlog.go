package serve

import "encoding/json"

// EventLog is the append-only progress log shared by jobs, sweeps and
// the cluster router's routed jobs: a monotone event sequence plus live
// fan-out to subscribers, with replay-then-live semantics (late
// subscribers replay the log from the start, so no event is ever lost
// to subscription timing). Each log numbers its own events from 1, so
// the router's client-facing stream keeps counting monotonically across
// a re-home even though the new replica restarts at 1.
//
// The log deliberately has no mutex of its own: every method carries
// the Locked suffix and requires the owner's mutex held, so the owner
// can make a state transition and its event land atomically — a
// subscriber can never observe a terminal state whose event is missing
// from the log. Job guards its log with Job.mu, sweepRun with
// sweepRun.mu, the router's routedJob with routedJob.mu.
type EventLog struct {
	events []Event
	subs   map[chan Event]bool
}

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
		for ch := range l.subs {
			close(ch)
			delete(l.subs, ch)
		}
	}
}

// SubscribeLocked returns a copy of the log so far plus a live channel.
// When the owner is already terminal the channel comes back closed —
// replay is the whole story. The caller must eventually pass the
// channel to UnsubscribeLocked (under the owner's mutex) unless it was
// closed by a terminal event.
func (l *EventLog) SubscribeLocked(terminal bool) (replay []Event, ch chan Event) {
	replay = make([]Event, len(l.events))
	copy(replay, l.events)
	ch = make(chan Event, 256)
	if terminal {
		close(ch)
		return replay, ch
	}
	if l.subs == nil {
		l.subs = make(map[chan Event]bool)
	}
	l.subs[ch] = true
	return replay, ch
}

// UnsubscribeLocked detaches a live subscriber early. Safe to call
// after a terminal close (the subscription is already gone then).
func (l *EventLog) UnsubscribeLocked(ch chan Event) {
	if l.subs[ch] {
		delete(l.subs, ch)
		close(ch)
	}
}
