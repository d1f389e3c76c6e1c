package lru

import "testing"

// startFill runs GetOrFill(k) on its own goroutine with a fill that
// blocks until the returned release function is called with the value
// to fill. It returns once the fill is in flight; wait returns the
// caller's result.
func startFill(t *testing.T, c *Cache[string, uint64], k string) (release func(uint64), wait func() uint64) {
	t.Helper()
	started, vals := make(chan struct{}), make(chan uint64)
	done := make(chan uint64)
	go func() {
		v, err := c.GetOrFill(k, func() (uint64, error) {
			close(started)
			return <-vals, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	<-started
	return func(v uint64) { vals <- v }, func() uint64 { return <-done }
}

func identity(v uint64) uint64 { return v }

// TestEvictionSkipsInFlightFill: an entry whose fill has not returned
// is charged nothing and is not an eviction candidate, even from the
// least-recently-used end.
func TestEvictionSkipsInFlightFill(t *testing.T) {
	c := New[string](10, identity)
	release, wait := startFill(t, c, "a") // "a" is the LRU tail from here on
	c.Put("b", 6)
	c.Put("c", 6) // over budget: "b" goes, the in-flight "a" stays
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Bytes != 6 {
		t.Fatalf("after overflow: %+v, want 1 eviction, entries a and c, 6 bytes", st)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("resident b survived while only the in-flight a was older")
	}
	release(4)
	if v := wait(); v != 4 {
		t.Fatalf("GetOrFill = %d, want 4", v)
	}
	if v, ok := c.Get("a"); !ok || v != 4 {
		t.Errorf("Get(a) = %d, %v after its fill, want 4, true", v, ok)
	}
	if st := c.Stats(); st.Bytes != 10 || st.Evictions != 1 {
		t.Errorf("after fill: %+v, want 10 bytes and still 1 eviction", st)
	}
}

// TestPutOnInFlightKeyIgnored: a Put racing a fill of the same key is
// dropped, so the fill's waiters and later readers see one value.
func TestPutOnInFlightKeyIgnored(t *testing.T) {
	c := New[string](100, identity)
	release, wait := startFill(t, c, "a")
	c.Put("a", 3)
	if _, ok := c.Get("a"); ok {
		t.Error("Get of a key whose fill is in flight reported a value")
	}
	if st := c.Stats(); st.Puts != 1 || st.Entries != 1 || st.Bytes != 0 {
		t.Fatalf("after Put on in-flight key: %+v, want 1 put, 1 entry, 0 bytes", st)
	}
	release(5)
	if v := wait(); v != 5 {
		t.Fatalf("GetOrFill = %d, want the fill's 5", v)
	}
	if v, ok := c.Get("a"); !ok || v != 5 {
		t.Errorf("Get(a) = %d, %v, want the fill's 5, not the ignored Put's 3", v, ok)
	}
	if st := c.Stats(); st.Bytes != 5 {
		t.Errorf("resident bytes = %d, want 5", st.Bytes)
	}
}
