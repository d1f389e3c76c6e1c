package cache

import (
	"slices"
	"testing"

	"redhip/internal/memaddr"
)

// refCache is the naive reference the fuzz target checks Cache
// against: per set, a slice of ways holding whole block addresses plus
// an explicit recency list of way ids (most recent first), with every
// scan written the plain way — stop at the first match, pick the
// first invalid way by index.
type refCache struct {
	policy ReplacementPolicy
	ways   int
	sets   uint64
	block  [][]memaddr.Addr // [set][way]
	valid  [][]bool
	order  [][]int // [set] way ids, most recent first
	rng    uint64
	stats  Stats
}

func newRef(policy ReplacementPolicy, ways int, sets uint64) *refCache {
	r := &refCache{policy: policy, ways: ways, sets: sets, rng: 0x9e3779b97f4a7c15}
	for s := uint64(0); s < sets; s++ {
		r.block = append(r.block, make([]memaddr.Addr, ways))
		r.valid = append(r.valid, make([]bool, ways))
		order := make([]int, ways)
		for w := range order {
			order[w] = w
		}
		r.order = append(r.order, order)
	}
	return r
}

func (r *refCache) find(b memaddr.Addr) (set uint64, way int) {
	set = uint64(b) % r.sets
	for w := 0; w < r.ways; w++ {
		if r.valid[set][w] && r.block[set][w] == b {
			return set, w
		}
	}
	return set, -1
}

func (r *refCache) touch(set uint64, way int) {
	o := r.order[set]
	i := slices.Index(o, way)
	copy(o[1:i+1], o[:i])
	o[0] = way
}

func (r *refCache) lookup(b memaddr.Addr) bool {
	r.stats.Lookups++
	set, w := r.find(b)
	if w < 0 {
		r.stats.Misses++
		return false
	}
	if r.policy == LRU {
		r.touch(set, w)
	}
	r.stats.Hits++
	return true
}

func (r *refCache) contains(b memaddr.Addr) bool {
	_, w := r.find(b)
	return w >= 0
}

func (r *refCache) fill(b memaddr.Addr) (memaddr.Addr, bool) {
	set, w := r.find(b)
	if w >= 0 {
		if r.policy == LRU {
			r.touch(set, w)
		}
		return 0, false
	}
	victim := slices.Index(r.valid[set], false)
	if victim < 0 {
		switch r.policy {
		case Random:
			x := r.rng
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			r.rng = x
			victim = int((x * 0x2545f4914f6cdd1d) % uint64(r.ways))
		case LRU, FIFO:
			victim = r.order[set][r.ways-1]
		}
	}
	r.stats.Fills++
	var evicted memaddr.Addr
	wasEvicted := r.valid[set][victim]
	if wasEvicted {
		r.stats.Evictions++
		evicted = r.block[set][victim]
	}
	r.block[set][victim] = b
	r.valid[set][victim] = true
	if r.policy != Random {
		r.touch(set, victim)
	}
	return evicted, wasEvicted
}

func (r *refCache) invalidate(b memaddr.Addr) bool {
	set, w := r.find(b)
	if w < 0 {
		return false
	}
	r.valid[set][w] = false
	r.stats.Invalidates++
	return true
}

// tags lists set s's valid tags in way order, as TagsInSet does.
func (r *refCache) tags(s uint64, setBits uint) []uint64 {
	var out []uint64
	for w := 0; w < r.ways; w++ {
		if r.valid[s][w] {
			out = append(out, uint64(r.block[s][w])>>setBits)
		}
	}
	return out
}

// FuzzCacheOps drives a random sequence of Lookup, Fill, Contains,
// Invalidate and ResetStats against refCache. Byte 0 picks the policy,
// byte 1 the ways (1–16), byte 2 the sets (1–8); every following pair
// is (op, address). Block addresses stay below 256 in their low bits,
// so sets collide and fill up; the op byte's top three bits also set
// high tag bits. After every op the return values, the evicted block,
// every Stats field and the touched set's tags in way order must match.
func FuzzCacheOps(f *testing.F) {
	// Two 3-way sets: fill three blocks per set, invalidate two of them
	// so two invalid ways are free, then refill — the first invalid
	// way by index must take each refill.
	fillInvalidRefill := []byte{0, 2, 1,
		1, 0, 1, 2, 1, 4, 3, 0, 3, 4, 1, 6, 1, 8, 1, 10, 1, 12, 1, 14, 0, 4, 0, 8, 2, 2}
	f.Add(fillInvalidRefill)
	f.Add(append([]byte{1}, fillInvalidRefill[1:]...))
	f.Add(append([]byte{2}, fillInvalidRefill[1:]...))
	// Hit then miss in one set: a stale match must not leak into the
	// next probe.
	f.Add([]byte{0, 3, 0, 1, 7, 0, 7, 0, 9, 0, 7, 3, 7, 0, 7, 2, 7, 0, 7})
	// Direct-mapped, 16-way single set, and 8 sets under each policy,
	// with high tag bits and a stats reset mid-stream.
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 0, 1, 0, 2, 2, 1, 3, 2, 4, 0})
	f.Add([]byte{1, 15, 0, 1, 1, 1, 2, 1, 3, 0, 1, 0, 2, 4, 0, 225, 1, 224, 1, 3, 2, 1, 17, 0, 17})
	for pol := byte(0); pol < 3; pol++ {
		seq := []byte{pol, 3, 3}
		for i := 0; i < 96; i++ {
			seq = append(seq, byte(i*7)%5|byte(i%3)<<5, byte(i*37))
		}
		f.Add(seq)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		policy := ReplacementPolicy(data[0] % 3)
		ways := 1 + int(data[1]%MaxWays)
		sets := uint64(1) << (data[2] % 4)
		c, err := New(Geometry{Name: "fuzz", SizeBytes: sets * uint64(ways) * memaddr.BlockSize,
			Ways: ways, Banks: 1, Replacement: policy})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(policy, ways, sets)
		for i := 3; i+1 < len(data); i += 2 {
			op, b := data[i], memaddr.Addr(data[i+1])|memaddr.Addr(data[i]>>5)<<50
			switch op % 5 {
			case 0:
				if got, want := c.Lookup(b), ref.lookup(b); got != want {
					t.Fatalf("op %d: Lookup(%#x) = %v, reference %v", i, uint64(b), got, want)
				}
			case 1:
				ge, gw := c.Fill(b)
				re, rw := ref.fill(b)
				if ge != re || gw != rw {
					t.Fatalf("op %d: Fill(%#x) = (%#x, %v), reference (%#x, %v)", i, uint64(b), uint64(ge), gw, uint64(re), rw)
				}
			case 2:
				if got, want := c.Contains(b), ref.contains(b); got != want {
					t.Fatalf("op %d: Contains(%#x) = %v, reference %v", i, uint64(b), got, want)
				}
			case 3:
				if got, want := c.Invalidate(b), ref.invalidate(b); got != want {
					t.Fatalf("op %d: Invalidate(%#x) = %v, reference %v", i, uint64(b), got, want)
				}
			case 4:
				c.ResetStats()
				ref.stats = Stats{}
			}
			if got := c.Stats(); got != ref.stats {
				t.Fatalf("op %d: Stats = %+v, reference %+v", i, got, ref.stats)
			}
			s := uint64(b) % sets
			if got, want := c.TagsInSet(int(s), nil), ref.tags(s, c.SetBits()); !slices.Equal(got, want) {
				t.Fatalf("op %d: set %d tags = %v, reference %v", i, s, got, want)
			}
		}
	})
}
