package serve

import (
	"fmt"
	"sync"
)

// TableEntry is what a Table holds: serve's jobs and the cluster
// router's routed jobs. Both methods are called with the table lock
// held, so an entry's own lock always nests inside it (lock order
// table.mu -> entry mutex, everywhere).
type TableEntry interface {
	comparable
	// Terminal reports whether the entry reached an end state; only
	// terminal entries are evicted.
	Terminal() bool
	// Attach records one more deduplicated submission resolved to the
	// entry.
	Attach()
}

// Table indexes entries by ID and, optionally, by dedup key, and bounds
// residency: terminal entries beyond max are evicted oldest-first;
// live entries are never evicted, so an ID handed to a client stays
// resolvable until its entry ends and ages out.
type Table[E TableEntry] struct {
	idFormat string // fmt verb for the sequence number, e.g. "job-%06d"
	max      int

	mu     sync.Mutex
	nextID uint64         //redhip:guardedby mu
	byID   map[string]E   //redhip:guardedby mu
	byKey  map[string]E   //redhip:guardedby mu // non-terminal, or done (the result cache)
	order  []tableSlot[E] //redhip:guardedby mu // insertion order, the eviction scan order
}

// tableSlot is one resident entry with the index keys it holds.
type tableSlot[E any] struct {
	id, key string
	e       E
}

// NewTable returns an empty table minting IDs from idFormat and
// retaining at most max terminal-or-live entries before eviction.
func NewTable[E TableEntry](idFormat string, max int) *Table[E] {
	return &Table[E]{
		idFormat: idFormat,
		max:      max,
		byID:     make(map[string]E),
		byKey:    make(map[string]E),
	}
}

// Resolve is the single-flight heart of dedup: under one lock it either
// attaches the submission to the entry currently owning key (live, or
// done and cached) or registers a fresh entry built by create from a
// newly minted ID. created=false means the caller must not start
// anything. An empty key skips the key index: every call creates.
//
// admit, when non-nil, gates creation only: it runs under the table
// lock after the dedup check, so verdicts apply to genuinely new work
// (a dedup hit costs nothing and is never refused) and a reservation
// admit makes can never race another admission of the same key.
func (t *Table[E]) Resolve(key string, admit func() error, create func(id string) E) (e E, created bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if key != "" {
		if existing, ok := t.byKey[key]; ok {
			existing.Attach()
			return existing, false, nil
		}
	}
	if admit != nil {
		if err := admit(); err != nil {
			return e, false, err
		}
	}
	t.nextID++
	id := fmt.Sprintf(t.idFormat, t.nextID)
	e = create(id)
	t.byID[id] = e
	if key != "" {
		t.byKey[key] = e
	}
	t.order = append(t.order, tableSlot[E]{id: id, key: key, e: e})
	t.evictLocked()
	return e, true, nil
}

// FinishRelease runs finish — an entry's terminal transition whose
// result cannot be reused (failed or cancelled) — and, if it won, drops
// the key -> entry binding, both under one table-lock hold. The next
// identical submission then gets a fresh entry; done entries keep their
// binding instead, which is the result cache.
//
// The single hold is the dedup-wedge fix: with the transition and the
// key release split across two lock acquisitions, a submission could
// attach to an entry that had already failed terminally — its SSE
// subscribers closed, its slot gone — and wait forever on a corpse.
// Here no Resolve can observe a terminally failed entry that still owns
// its key.
func (t *Table[E]) FinishRelease(key string, e E, finish func() bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	won := finish()
	if won {
		if owner, ok := t.byKey[key]; ok && owner == e {
			delete(t.byKey, key)
		}
	}
	return won
}

// FullLocked reports whether the table holds max entries, every one of
// them live, so a new entry could not be balanced by an eviction. It is
// for admit hooks, which run with the table lock held.
func (t *Table[E]) FullLocked() bool {
	if len(t.order) < t.max {
		return false
	}
	for _, s := range t.order {
		if s.e.Terminal() {
			return false
		}
	}
	return true
}

// evictLocked trims terminal entries, oldest first, down to max
// residents. Live entries are skipped; they age out after finishing.
func (t *Table[E]) evictLocked() {
	excess := len(t.order) - t.max
	if excess <= 0 {
		return
	}
	kept := t.order[:0]
	for _, s := range t.order {
		if excess > 0 && s.e.Terminal() {
			delete(t.byID, s.id)
			if owner, ok := t.byKey[s.key]; ok && owner == s.e {
				delete(t.byKey, s.key)
			}
			excess--
			continue
		}
		kept = append(kept, s)
	}
	clear(t.order[len(kept):]) // drop evicted entries' references
	t.order = kept
}

// Get looks an entry up by ID; the zero E when absent.
func (t *Table[E]) Get(id string) E {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// List snapshots all resident entries in insertion order.
func (t *Table[E]) List() []E {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]E, len(t.order))
	for i, s := range t.order {
		out[i] = s.e
	}
	return out
}

// Len returns the resident entry count.
func (t *Table[E]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}
