package simstate

import (
	"sync"

	"redhip/internal/lru"
)

// DefaultBudgetBytes bounds the snapshot store when the caller passes
// 0. Warm blobs are a few hundred KiB each at paper geometries, so
// 64 MiB holds every (workload × scheme) pair of a large sweep.
const DefaultBudgetBytes = 64 << 20

// Key identifies one warm prefix: sim.WarmKey's SHA-256 over the
// canonical warm-relevant configuration (geometry × workload × seed ×
// warmup refs × scheme).
type Key [32]byte

// StoreStats are the store's LRU counters and occupancy (lru.Stats;
// cumulative for the store's lifetime, use Delta for per-interval
// readings) plus its restore accounting.
type StoreStats struct {
	lru.Stats
	// Restores counts engine restores branched from stored blobs;
	// RestoreNanos is their summed decode+restore wall time, recorded
	// by callers via RecordRestore.
	Restores     uint64
	RestoreNanos int64
}

// MeanRestoreNanos returns the average wall time of one restore.
func (s StoreStats) MeanRestoreNanos() float64 {
	if s.Restores == 0 {
		return 0
	}
	return float64(s.RestoreNanos) / float64(s.Restores)
}

// Delta returns the counter movement since prev; gauges (Entries,
// Bytes, BudgetBytes) keep their current values.
func (s StoreStats) Delta(prev StoreStats) StoreStats {
	return StoreStats{
		Stats:        s.Stats.Delta(prev.Stats),
		Restores:     s.Restores - prev.Restores,
		RestoreNanos: s.RestoreNanos - prev.RestoreNanos,
	}
}

// Store is a byte-budget LRU of encoded snapshot blobs, safe for
// concurrent use. Blobs are stored and handed out by reference: they
// are immutable by contract (Encode returns a fresh slice, Decode
// never writes through its input), so hits are zero-copy.
//
// Warms go through Get and Put, not a single-flight fill, deliberately:
// two goroutines warming the same key concurrently waste one warmup
// but stay correct (the blobs are bit-identical, the second Put a
// refresh), and warms are rare enough that the coordination would cost
// more than the duplicate work it saves.
type Store struct {
	cache *lru.Cache[Key, []byte]

	mu           sync.Mutex
	restores     uint64 //redhip:guardedby mu
	restoreNanos int64  //redhip:guardedby mu
}

// NewStore builds a snapshot store; budgetBytes 0 selects
// DefaultBudgetBytes.
func NewStore(budgetBytes uint64) *Store {
	if budgetBytes == 0 {
		budgetBytes = DefaultBudgetBytes
	}
	return &Store{cache: lru.New[Key](budgetBytes, func(b []byte) uint64 { return uint64(len(b)) })}
}

// Get returns the blob stored under k, if any, refreshing its recency.
// Callers must treat the returned slice as read-only.
func (s *Store) Get(k Key) ([]byte, bool) { return s.cache.Get(k) }

// Put stores blob under k, evicting least-recently-used blobs to stay
// within budget. A blob larger than the whole budget is not stored.
func (s *Store) Put(k Key, blob []byte) { s.cache.Put(k, blob) }

// RecordRestore accounts one completed snapshot restore: nanos is the
// decode+restore wall time the caller measured.
func (s *Store) RecordRestore(nanos int64) {
	s.mu.Lock()
	s.restores++
	s.restoreNanos += nanos
	s.mu.Unlock()
}

// Stats returns a snapshot of the store's counters and occupancy.
func (s *Store) Stats() StoreStats {
	st := StoreStats{Stats: s.cache.Stats()}
	s.mu.Lock()
	st.Restores, st.RestoreNanos = s.restores, s.restoreNanos
	s.mu.Unlock()
	return st
}
