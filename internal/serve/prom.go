package serve

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
)

// PromWriter renders the Prometheus text exposition format for serve's
// and the router's /metrics. Callers emit families in a fixed order and
// label values sorted, so scrapes are diffable.
type PromWriter struct{ W io.Writer }

// Counter writes an unlabelled counter family with its one sample.
func (p PromWriter) Counter(name, help string, v uint64) {
	p.Family(name, "counter", help)
	fmt.Fprintf(p.W, "%s %d\n", name, v)
}

// Counters writes each counter of cs, in order.
func (p PromWriter) Counters(cs Counters) {
	for _, c := range cs {
		p.Counter(c.name, c.help, c.Load())
	}
}

// Gauge writes an unlabelled gauge family with its one sample.
func (p PromWriter) Gauge(name, help string, v float64) {
	p.Family(name, "gauge", help)
	fmt.Fprintf(p.W, "%s %g\n", name, v)
}

// Family writes the HELP and TYPE header of a family whose labelled
// samples (Sample, Histogram) follow.
func (p PromWriter) Family(name, typ, help string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one integer sample labelled by name/value pairs.
func (p PromWriter) Sample(name string, v int64, labels ...string) {
	fmt.Fprintf(p.W, "%s%s %d\n", name, promLabels(labels), v)
}

// Histogram writes one labelled series of a histogram family: a
// cumulative bucket per bound plus +Inf, then sum and count.
func (p PromWriter) Histogram(name string, h *Histogram, labels ...string) {
	labels = labels[:len(labels):len(labels)] // appends below must copy
	for i, ub := range h.Buckets {
		var c uint64
		if h.counts != nil {
			c = h.counts[i]
		}
		fmt.Fprintf(p.W, "%s_bucket%s %d\n", name, promLabels(append(labels, "le", fmt.Sprintf("%g", ub))), c)
	}
	fmt.Fprintf(p.W, "%s_bucket%s %d\n", name, promLabels(append(labels, "le", "+Inf")), h.count)
	fmt.Fprintf(p.W, "%s_sum%s %g\n", name, promLabels(labels), h.sum)
	fmt.Fprintf(p.W, "%s_count%s %d\n", name, promLabels(labels), h.count)
}

// promLabels renders name/value pairs as {k="v",...}; "" for none.
func promLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// sortedKeys returns m's keys in ascending order — the label order of
// every labelled family.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Counter is one monotone, unlabelled counter family: its name, help
// text and value. It is safe for concurrent use.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Counters is a /metrics endpoint's counter set in exposition order.
type Counters []*Counter

// New declares the next counter of the set.
func (cs *Counters) New(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	*cs = append(*cs, c)
	return c
}

// Outcomes counts terminal states, one counter per outcome.
type Outcomes struct{ Done, Failed, Cancelled *Counter }

// Inc bumps the counter matching terminal state s.
func (o Outcomes) Inc(s State) {
	switch s {
	case StateDone:
		o.Done.Inc()
	case StateFailed:
		o.Failed.Inc()
	case StateCancelled:
		o.Cancelled.Inc()
	}
}

// Histogram is a fixed-bucket Prometheus histogram: counts[i] observes
// values <= Buckets[i]; sum and count feed the implicit +Inf bucket and
// averages. It is not safe for concurrent use; owners lock around it.
type Histogram struct {
	Buckets []float64 // bucket upper bounds
	counts  []uint64
	sum     float64
	count   uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(h.Buckets))
	}
	for i, ub := range h.Buckets {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
}
