package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. The benchmark records
// a span around every public call it makes and every HTTP request it
// sends, and derives child spans from the timestamps and durations the
// layers already return (job status times, sim.Result.Perf). The layer
// is the name's prefix before the first dot.
type span struct {
	Name    string            `json:"name"`
	TraceID string            `json:"trace_id"`
	SpanID  uint64            `json:"span_id"`
	Parent  uint64            `json:"parent,omitempty"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so both runs share one code
// path and differ only in what is recorded.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID (0 on a nil tracer, which is
// also the "no parent" ID).
func (t *tracer) add(name, traceID string, parent uint64, start, end time.Time, attrs map[string]string) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		Name: name, TraceID: traceID, SpanID: id, Parent: parent,
		Start: start, End: end, Attrs: attrs,
	})
	return id
}

// sequence records back-to-back child spans of parent starting at
// start, one per (name, duration) pair, and returns where the last one
// ends. It is for layers that report how long each stage took but not
// when: the durations are exact, the placement inside the parent is
// not.
func (t *tracer) sequence(traceID string, parent uint64, start time.Time, stages ...stage) time.Time {
	at := start
	for _, st := range stages {
		if st.d <= 0 {
			continue
		}
		t.add(st.name, traceID, parent, at, at.Add(st.d), nil)
		at = at.Add(st.d)
	}
	return at
}

// stage is one (name, duration) pair for sequence.
type stage struct {
	name string
	d    time.Duration
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf is a span name's layer: the prefix before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Layer string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// selfTimes computes each layer's self time: every span's duration
// minus the part of its interval that its child spans cover (children
// may overlap one another, as parallel runs do; the union counts once),
// summed per layer. Self time is where the layer itself spent the
// interval rather than waiting on a layer below it.
func selfTimes(spans []span) []layerTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byLayer[layerOf(s.Name)]
		if lt == nil {
			lt = &layerTime{Layer: layerOf(s.Name)}
			byLayer[lt.Layer] = lt
		}
		d := s.End.Sub(s.Start)
		lt.Spans++
		lt.Total += d
		lt.Self += d - covered(s.Start, s.End, children[s.SpanID])
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end time.Time, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, workload string, lts []layerTime) {
	fmt.Fprintf(w, "%s: self time by layer (span minus the time its child spans cover)\n", workload)
	fmt.Fprintf(w, "  %-12s %7s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, lt := range lts {
		fmt.Fprintf(w, "  %-12s %7d %12.1f %12.1f\n", lt.Layer, lt.Spans, ms(lt.Total), ms(lt.Self))
	}
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("benchmark: spans directory: %w", err)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return fmt.Errorf("benchmark: encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchmark: write spans: %w", err)
	}
	return nil
}
