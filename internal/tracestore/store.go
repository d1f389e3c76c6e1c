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
// wire format remains the interchange representation
// (Materialized.Trace feeds trace.Write); the store itself trades
// memory for time and bounds the trade with a byte-budget LRU.
//
// Invariants:
//   - A Materialized stream is immutable after construction. Sources
//     hands out independent read-only cursors over the shared backing
//     slices, so any number of simulations may replay one entry
//     concurrently (the race test exercises exactly this).
//   - Replay is bit-identical to live generation: the records are
//     produced by the same workload.Source batch path the simulator
//     would otherwise drive, so golden Result fingerprints are
//     unchanged by routing a run through the store.
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
	"redhip/internal/redhipassert"
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

// Materialized is one generated stream: per core, the records plus the
// name and CPI of the source that generated them (mix runs a different
// benchmark on every core). It is immutable after construction.
type Materialized struct {
	cores []trace.Trace
	size  uint64
}

// Sources returns fresh replay cursors over the shared records, one per
// core. Each call returns independent cursors, so concurrent
// simulations each call Sources and never share mutable state.
func (m *Materialized) Sources() []workload.Source {
	srcs := make([]workload.Source, len(m.cores))
	for c := range m.cores {
		srcs[c] = workload.FromTrace(&m.cores[c])
	}
	return srcs
}

// Bytes is the in-memory footprint charged against the store budget.
func (m *Materialized) Bytes() uint64 { return m.size }

// Refs returns the number of records materialised for one core.
func (m *Materialized) Refs(core int) int { return len(m.cores[core].Records) }

// Trace exports one core's records in the trace package's container,
// sharing (not copying) the backing slice — the bridge to the wire
// format for trace files. The caller must not mutate the records.
func (m *Materialized) Trace(core int) *trace.Trace {
	tr := m.cores[core]
	return &tr
}

// Stats is a point-in-time snapshot of store behaviour. Hits+Misses
// counts Get calls; Misses counts materialisations started (exactly one
// per key while the entry stays resident, the acceptance check for
// "generation ran once").
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Entries     int
	Bytes       uint64
	BudgetBytes uint64
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

// HitRate returns the fraction of Get calls served from a resident
// entry, or 0 before the first Get. Consumers (the runner's sweep
// report, redhip-serve's /metrics) derive it from one snapshot instead
// of racing two counter reads.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
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
// this one: Hits, Misses, Evictions, Materializations and
// MaterializeNanos are differenced; the point-in-time gauges (Entries,
// Bytes, BudgetBytes) keep this snapshot's values. This is how
// interval consumers (benchmark arms, scrape deltas) must compare two
// snapshots of a long-lived store — the raw counters are cumulative.
func (st Stats) Delta(prev Stats) Stats {
	d := st
	d.Hits -= prev.Hits
	d.Misses -= prev.Misses
	d.Evictions -= prev.Evictions
	d.Materializations -= prev.Materializations
	d.MaterializeNanos -= prev.MaterializeNanos
	return d
}

// entry is one cache slot. ready closes when mat/err are final;
// waiters read them only after <-ready (close gives happens-before).
type entry struct {
	key        Key
	ready      chan struct{}
	mat        *Materialized
	err        error
	prev, next *entry // LRU list, most recent at head
}

// Store is a byte-budget LRU cache of materialised streams, safe for
// concurrent use. The zero value is not usable; call New.
type Store struct {
	mu      sync.Mutex
	budget  uint64
	now     func() int64   // nanosecond clock behind MaterializeNanos
	entries map[Key]*entry //redhip:guardedby mu
	head    *entry         //redhip:guardedby mu // most recently used
	tail    *entry         //redhip:guardedby mu // least recently used
	bytes   uint64         //redhip:guardedby mu
	stats   Stats          //redhip:guardedby mu
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
		budget:  budgetBytes,
		now:     now,
		entries: make(map[Key]*entry),
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
// A failed materialisation is not cached — the next Get retries.
func (s *Store) Get(k Key) (*Materialized, error) {
	if faultinject.Enabled {
		// Delay-only point: widens the single-flight and eviction race
		// windows the chaos harness drives through -race.
		if err := faultinject.Fire(faultinject.PointTracestoreGet); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.stats.Hits++
		s.moveToFrontLocked(e)
		s.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e.mat, nil
	}
	e := &entry{key: k, ready: make(chan struct{})}
	s.entries[k] = e
	s.pushFrontLocked(e)
	s.stats.Misses++
	s.mu.Unlock()

	start := s.now()
	mat, err := fill(k)
	elapsed := s.now() - start

	s.mu.Lock()
	s.stats.MaterializeNanos += elapsed
	s.stats.Materializations++
	e.mat, e.err = mat, err
	switch {
	case err != nil:
		// Drop the entry so a later Get can retry.
		s.removeLocked(e)
	case mat.size > s.budget:
		// Too large to ever fit: hand it to the waiters but do not
		// retain it (retaining would evict the whole rest of the cache
		// for an entry the next insert throws out anyway).
		s.removeLocked(e)
	default:
		s.bytes += mat.size
		s.evictOverLocked()
	}
	if redhipassert.Enabled {
		redhipassert.Check(s.listConsistentLocked(), "tracestore: LRU list inconsistent after insert/evict")
	}
	s.mu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, err
	}
	return mat, nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	st.BudgetBytes = s.budget
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

// materialize generates k's stream through the workload batch path —
// one NextBatch call per core fills the whole slice, the same records
// in the same order the simulator would pull live.
func materialize(k Key) (*Materialized, error) {
	srcs, err := workload.Sources(k.Workload, k.Cores, k.Scale, k.Seed)
	if err != nil {
		return nil, err
	}
	m := &Materialized{cores: make([]trace.Trace, len(srcs))}
	for c, src := range srcs {
		buf := make([]trace.Record, k.RefsPerCore)
		n := workload.AsBatch(src).NextBatch(buf)
		m.cores[c] = trace.Trace{Name: src.Name(), CPI: src.CPI(), Records: buf[:n:n]}
		m.size += uint64(n) * RecordBytes
	}
	return m, nil
}

// --- LRU list (s.mu held: the Locked suffix is the guarded analyzer's contract) ------------------------------------------------------

func (s *Store) pushFrontLocked(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Store) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) moveToFrontLocked(e *entry) {
	if s.head == e {
		return
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
}

// removeLocked deletes e from the map and list without touching the
// byte count (callers only remove entries whose size was never charged).
func (s *Store) removeLocked(e *entry) {
	s.unlinkLocked(e)
	delete(s.entries, e.key)
}

// listConsistentLocked verifies the LRU list invariants with s.mu
// held: the head-to-tail walk visits exactly the map's entries with
// coherent prev/next links. Only redhipassert-tagged builds call this.
func (s *Store) listConsistentLocked() bool {
	n := 0
	var prev *entry
	for e := s.head; e != nil; e = e.next {
		if e.prev != prev {
			return false
		}
		if got, ok := s.entries[e.key]; !ok || got != e {
			return false
		}
		prev = e
		n++
	}
	return prev == s.tail && n == len(s.entries)
}

// evictOverLocked drops least-recently-used resident entries until the
// byte count fits the budget. In-flight entries (mat == nil) are
// skipped: their size is unknown and their waiters hold no reference
// yet. Evicted records stay valid for any simulation already replaying
// them — the slices are immutable and garbage collected, eviction only
// drops the store's reference.
func (s *Store) evictOverLocked() {
	e := s.tail
	for s.bytes > s.budget && e != nil {
		prev := e.prev
		if e.mat != nil {
			s.bytes -= e.mat.size
			s.removeLocked(e)
			s.stats.Evictions++
		}
		e = prev
	}
}
