// Package tracestore caches materialised workload reference streams so
// that a sweep which simulates the same (workload, seed, scale, refs)
// point under several schemes pays stream generation once and replays
// it for every scheme after the first.
//
// The cache holds decoded records, not wire-format bytes. Decoding the
// compact varint wire format costs about as much as generating the
// stream — replaying through a decoder would save nothing. Replaying a
// decoded slice through workload.TraceSource's zero-copy Window path
// costs a slice header per few thousand references, which is what
// turns a five-scheme sweep's five generation passes into one. The
// store trades memory for time and bounds the trade with a byte-budget
// LRU.
//
// A multiprogrammed workload runs identical copies of one stream on
// every core, each in its own address space (workload.Layout). The
// store generates and keeps each distinct stream once and hands every
// core a cursor that carries its address offset, so an 8-core SPEC
// entry costs one stream's records, not eight.
//
// Invariants:
//   - A Materialized stream is immutable after construction. Sources
//     hands out independent read-only cursors over the shared backing
//     slices, so any number of simulations may replay one entry
//     concurrently (the race test exercises exactly this).
//   - Replay is bit-identical to live generation: the records are
//     produced by the same workload.Source batch path the simulator
//     would otherwise drive, and each cursor adds its core's offset
//     exactly as the live offset source does, so golden Result
//     fingerprints are unchanged by routing a run through the store.
//   - Generation runs exactly once per key. Concurrent callers of Get
//     for the same key block on the first caller's materialisation
//     (single-flight) instead of generating duplicates.
package tracestore

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"redhip/internal/faultinject"
	"redhip/internal/lru"
	"redhip/internal/trace"
	"redhip/internal/workload"
)

// DefaultBudgetBytes bounds the store when the caller does not: 256 MiB
// holds ~11 M records (more than 40 scaled-geometry streams), while a
// figure-scale sweep over many workloads recycles the oldest streams
// instead of growing without bound.
const DefaultBudgetBytes = 256 << 20

// RecordBytes is the in-memory cost of one cached record — exported so
// admission control (serve's byte-budget load shedder) can estimate a
// job's trace footprint with the same constant the store charges.
const RecordBytes = uint64(unsafe.Sizeof(trace.Record{}))

// Key identifies one materialised stream: every input that affects the
// generated records. Two jobs that differ only in scheme, inclusion
// policy or cache geometry share a key — that sharing is the point.
type Key struct {
	Workload    string
	Cores       int
	Scale       uint64
	Seed        uint64
	RefsPerCore uint64 // total records per core (warmup + measurement)
}

func (k Key) String() string {
	return fmt.Sprintf("%s/c%d/s%d/seed%d/%dref", k.Workload, k.Cores, k.Scale, k.Seed, k.RefsPerCore)
}

// Materialized is one generated workload: each distinct stream of its
// layout once, plus the layout that places every core on a stream at
// an address offset. It is immutable after construction.
type Materialized struct {
	layout  workload.Layout
	streams []trace.Trace
	size    uint64
}

// Sources returns fresh replay cursors over the shared records, one per
// core, each carrying its core's address offset. Each call returns
// independent cursors, so concurrent simulations each call Sources and
// never share mutable state.
func (m *Materialized) Sources() []workload.Source {
	srcs := make([]workload.Source, len(m.layout.Cores))
	for c, pl := range m.layout.Cores {
		srcs[c] = workload.ReplayAt(&m.streams[pl.Stream], pl.Offset)
	}
	return srcs
}

// Bytes is the in-memory footprint charged against the store budget:
// the distinct streams' records, the same figure Footprint predicts.
func (m *Materialized) Bytes() uint64 { return m.size }

// Refs returns the number of records materialised for one core.
func (m *Materialized) Refs(core int) int {
	return len(m.streams[m.layout.Cores[core].Stream].Records)
}

// Footprint returns the bytes the store will charge for k's entry —
// one copy of each distinct stream of k's layout — without generating
// anything, so admission control can reserve exactly that.
func Footprint(k Key) (uint64, error) {
	l, err := workload.NewLayout(k.Workload, k.Cores, k.Scale, k.Seed)
	if err != nil {
		return 0, err
	}
	return uint64(len(l.Streams)) * k.RefsPerCore * RecordBytes, nil
}

// Stats is a point-in-time snapshot of store behaviour: the LRU's
// counters, where Hits+Misses counts Get calls and Misses counts
// materialisations started (exactly one per key while the entry stays
// resident, the acceptance check for "generation ran once"), plus the
// materialisation timing.
type Stats struct {
	lru.Stats
	// MaterializeNanos is CUMULATIVE wall time across every
	// materialisation this store ever ran — it never resets, so two
	// snapshots straddling an interval must be differenced with Delta
	// before comparison. (A benchmark arm once compared a warm store's
	// lifetime total against a cold store's single fill and concluded
	// the warm arm generated for longer.)
	MaterializeNanos int64
	// Materializations counts completed fill attempts (the divisor for
	// MeanMaterializeNanos).
	Materializations uint64
}

// MeanMaterializeNanos returns the average wall time of one
// materialisation in this snapshot, or 0 before the first fill. Use on
// a Delta snapshot for a per-interval mean.
func (st Stats) MeanMaterializeNanos() int64 {
	if st.Materializations == 0 {
		return 0
	}
	return st.MaterializeNanos / int64(st.Materializations)
}

// Delta returns the counter movement between an earlier snapshot and
// this one (lru.Stats.Delta plus the materialisation counters); the
// point-in-time gauges keep this snapshot's values.
func (st Stats) Delta(prev Stats) Stats {
	return Stats{
		Stats:            st.Stats.Delta(prev.Stats),
		MaterializeNanos: st.MaterializeNanos - prev.MaterializeNanos,
		Materializations: st.Materializations - prev.Materializations,
	}
}

// Store is a byte-budget LRU cache of materialised streams, safe for
// concurrent use. The zero value is not usable; call New.
type Store struct {
	cache *lru.Cache[Key, *Materialized]
	now   func() int64 // nanosecond clock behind MaterializeNanos

	mu               sync.Mutex
	materializeNanos int64  //redhip:guardedby mu
	materializations uint64 //redhip:guardedby mu
}

// New returns a store bounded by budgetBytes of cached records
// (DefaultBudgetBytes when 0). Materialisation time is attributed
// through the wall clock; tests that need deterministic Stats inject
// their own clock via NewWithClock.
func New(budgetBytes uint64) *Store {
	return NewWithClock(budgetBytes, wallclockNanos)
}

// NewWithClock is New with an injected nanosecond clock. The clock only
// feeds the MaterializeNanos perf counter — cached records and
// replay behaviour are identical whatever it returns.
func NewWithClock(budgetBytes uint64, now func() int64) *Store {
	if budgetBytes == 0 {
		budgetBytes = DefaultBudgetBytes
	}
	return &Store{
		cache: lru.New[Key](budgetBytes, (*Materialized).Bytes),
		now:   now,
	}
}

// wallclockNanos is the default clock: real time, sanctioned here
// because it feeds a perf counter, never simulated time.
func wallclockNanos() int64 {
	return time.Now().UnixNano() //redhip:allow wallclock -- MaterializeNanos perf attribution only
}

// Get returns the materialised stream for k, generating it on first
// use. Concurrent calls for the same key share one generation: the
// first caller materialises while the rest block until it finishes.
// A failed materialisation is not cached — the next Get retries. A
// stream larger than the whole budget is handed to its callers but not
// retained. Evicted records stay valid for any simulation already
// replaying them: the slices are immutable and garbage collected.
func (s *Store) Get(k Key) (*Materialized, error) {
	if faultinject.Enabled {
		// Delay-only point: widens the single-flight and eviction race
		// windows the chaos harness drives through -race.
		if err := faultinject.Fire(faultinject.PointTracestoreGet); err != nil {
			return nil, err
		}
	}
	return s.cache.GetOrFill(k, func() (*Materialized, error) {
		start := s.now()
		mat, err := fill(k)
		elapsed := s.now() - start
		s.mu.Lock()
		s.materializeNanos += elapsed
		s.materializations++
		s.mu.Unlock()
		return mat, err
	})
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	st := Stats{Stats: s.cache.Stats()}
	s.mu.Lock()
	st.MaterializeNanos, st.Materializations = s.materializeNanos, s.materializations
	s.mu.Unlock()
	return st
}

// fill is the single-flight fill body: the faultinject seam (failed or
// slow materialisation) in front of the real generation.
func fill(k Key) (*Materialized, error) {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.PointTracestoreMaterialize); err != nil {
			return nil, err
		}
	}
	return materialize(k)
}

// materialize generates each distinct stream of k's layout once
// through the workload batch path — one NextBatch call fills the whole
// slice, the same records in the same order a live source would
// produce before its core's offset is added.
func materialize(k Key) (*Materialized, error) {
	l, err := workload.NewLayout(k.Workload, k.Cores, k.Scale, k.Seed)
	if err != nil {
		return nil, err
	}
	m := &Materialized{layout: l, streams: make([]trace.Trace, len(l.Streams))}
	for i := range l.Streams {
		src, err := l.Open(i)
		if err != nil {
			return nil, err
		}
		buf := make([]trace.Record, k.RefsPerCore)
		n := workload.AsBatch(src).NextBatch(buf)
		m.streams[i] = trace.Trace{Name: src.Name(), CPI: src.CPI(), Records: buf[:n:n]}
		m.size += uint64(n) * RecordBytes
	}
	return m, nil
}
