// Package generic is a guarded-analyzer fixture for generic types.
// Inside a method of a generic type, and wherever an instantiation is
// used, go/types resolves a field selection to an instantiated field
// var rather than the declared one; the analyzer must still find the
// field's //redhip:guardedby annotation.
package generic

import "sync"

// Table is a generic map guarded by mu.
type Table[E any] struct {
	mu    sync.Mutex
	items map[string]E //redhip:guardedby mu
	hits  uint64       //redhip:guardedby mu
}

// Get locks the mutex before touching items.
func (t *Table[E]) Get(k string) E {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hits++
	return t.items[k]
}

// Peek reads items with no lock anywhere in its body.
func (t *Table[E]) Peek(k string) E {
	return t.items[k] // want `field items is //redhip:guardedby mu`
}

// lenLocked follows the called-with-lock-held naming convention.
func (t *Table[E]) lenLocked() int { return len(t.items) }

// SizeRacy reads an instantiated table's guarded fields unlocked.
func SizeRacy(t *Table[int]) int {
	_ = t.hits          // want `field hits is //redhip:guardedby mu`
	return len(t.items) // want `field items is //redhip:guardedby mu`
}

// SizeLocked reads them under the lock.
func SizeLocked(t *Table[string]) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.hits
	return len(t.items)
}
