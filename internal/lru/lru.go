// Package lru is the byte-budget least-recently-used cache under the
// trace store (tracestore) and the warm-state snapshot store
// (simstate): a map plus an intrusive recency list, bounded by the
// summed size of the resident values, with a single-flight fill for
// values that are expensive to build.
package lru

import (
	"sync"

	"redhip/internal/redhipassert"
)

// Stats is a point-in-time snapshot of a cache: counters cumulative
// over its lifetime (difference two snapshots with Delta) and
// occupancy gauges.
type Stats struct {
	// Hits counts lookups served by a resident entry or by joining an
	// in-flight fill; Misses counts the rest (for GetOrFill, exactly
	// the fills started).
	Hits   uint64
	Misses uint64
	// Puts counts Put calls, whether or not the value was retained.
	Puts      uint64
	Evictions uint64
	// Entries, Bytes and BudgetBytes describe current occupancy.
	Entries     int
	Bytes       uint64
	BudgetBytes uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first lookup.
// Consumers derive it from one snapshot instead of racing two counter
// reads.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Delta returns the counter movement between an earlier snapshot and
// this one; the gauges (Entries, Bytes, BudgetBytes) keep this
// snapshot's values. Interval consumers (benchmark arms, scrape
// deltas) must compare snapshots of a long-lived cache this way — the
// raw counters are cumulative.
func (st Stats) Delta(prev Stats) Stats {
	d := st
	d.Hits -= prev.Hits
	d.Misses -= prev.Misses
	d.Puts -= prev.Puts
	d.Evictions -= prev.Evictions
	return d
}

// entry is one cache slot. For a GetOrFill entry, ready closes once
// val and err are final; waiters read them only after <-ready (close
// gives happens-before).
type entry[K comparable, V any] struct {
	key        K
	val        V
	size       uint64
	filling    bool // a GetOrFill fill is in flight; guarded by the cache's mu
	ready      chan struct{}
	err        error
	prev, next *entry[K, V] // recency list, most recent at head
}

// Cache is a byte-budget LRU cache, safe for concurrent use. The zero
// value is not usable; call New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  uint64
	size    func(V) uint64
	entries map[K]*entry[K, V] //redhip:guardedby mu
	head    *entry[K, V]       //redhip:guardedby mu // most recently used
	tail    *entry[K, V]       //redhip:guardedby mu // next eviction candidate
	bytes   uint64             //redhip:guardedby mu
	stats   Stats              //redhip:guardedby mu
}

// New returns a cache that keeps the summed size of its resident
// values within budget bytes; size reports one value's charge.
func New[K comparable, V any](budget uint64, size func(V) uint64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, size: size, entries: make(map[K]*entry[K, V])}
}

// Get returns the value resident under k, refreshing its recency. A
// key whose fill is still in flight reads as absent.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil || e.filling {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.moveToFrontLocked(e)
	return e.val, true
}

// Put stores v under k as the most recently used entry, evicting from
// the least recently used end to stay within budget. A value larger
// than the whole budget is not stored (it would evict everything, then
// itself on the next insert), and a key whose fill is in flight is
// left to that fill. A resident key gets a new entry rather than a
// write through the old one, so a fill's waiters read their value
// without the lock.
func (c *Cache[K, V]) Put(k K, v V) {
	size := c.size(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Puts++
	if size > c.budget {
		return
	}
	if old := c.entries[k]; old != nil {
		if old.filling {
			return
		}
		c.bytes -= old.size
		c.removeLocked(old)
	}
	e := &entry[K, V]{key: k, val: v, size: size}
	c.entries[k] = e
	c.pushFrontLocked(e)
	c.bytes += size
	c.evictOverLocked()
	if redhipassert.Enabled {
		redhipassert.Check(c.consistentLocked(), "lru: recency list inconsistent with entry map or byte count")
	}
}

// GetOrFill returns the value under k, calling fill to build it on a
// miss. Concurrent callers for one key share a single fill: the first
// runs it while the rest wait and count as hits. A failed fill is not
// cached — its error goes to every caller that waited on it, and the
// next call retries. A value larger than the whole budget goes to its
// callers but is not retained.
func (c *Cache[K, V]) GetOrFill(k K, fill func() (V, error)) (V, error) {
	c.mu.Lock()
	if e := c.entries[k]; e != nil {
		c.stats.Hits++
		c.moveToFrontLocked(e)
		if !e.filling {
			v := e.val
			c.mu.Unlock()
			return v, nil
		}
		c.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	e := &entry[K, V]{key: k, filling: true, ready: make(chan struct{})}
	c.entries[k] = e
	c.pushFrontLocked(e)
	c.stats.Misses++
	c.mu.Unlock()

	v, err := fill()

	c.mu.Lock()
	e.val, e.err, e.filling = v, err, false
	if err == nil {
		e.size = c.size(v)
	}
	if err != nil || e.size > c.budget {
		c.removeLocked(e)
	} else {
		c.bytes += e.size
		c.evictOverLocked()
	}
	if redhipassert.Enabled {
		redhipassert.Check(c.consistentLocked(), "lru: recency list inconsistent with entry map or byte count")
	}
	c.mu.Unlock()
	close(e.ready)
	return v, err
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.Bytes = c.bytes
	st.BudgetBytes = c.budget
	return st
}

// --- recency list (c.mu held: the Locked suffix is the guarded analyzer's contract) ---

func (c *Cache[K, V]) pushFrontLocked(e *entry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlinkLocked(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) moveToFrontLocked(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// removeLocked deletes e from the map and list; the caller settles the
// byte count.
func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	c.unlinkLocked(e)
	delete(c.entries, e.key)
}

// evictOverLocked drops least-recently-used resident entries until the
// byte count fits the budget, skipping entries whose fill is in
// flight: they are charged nothing until the fill returns. An evicted
// value stays valid for any caller still holding it; eviction only
// drops the cache's reference.
func (c *Cache[K, V]) evictOverLocked() {
	for e := c.tail; c.bytes > c.budget && e != nil; {
		prev := e.prev
		if !e.filling {
			c.bytes -= e.size
			c.removeLocked(e)
			c.stats.Evictions++
		}
		e = prev
	}
}

// consistentLocked reports whether the head-to-tail walk visits exactly
// the map's entries over coherent prev/next links, and whether their
// sizes sum to the charged byte count. Only redhipassert-tagged builds
// call it.
func (c *Cache[K, V]) consistentLocked() bool {
	n, bytes := 0, uint64(0)
	var prev *entry[K, V]
	for e := c.head; e != nil; e = e.next {
		if e.prev != prev || c.entries[e.key] != e {
			return false
		}
		prev = e
		n++
		bytes += e.size
	}
	return prev == c.tail && n == len(c.entries) && bytes == c.bytes
}
