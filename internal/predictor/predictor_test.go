package predictor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redhip/internal/core"
	"redhip/internal/memaddr"
)

func TestCBFConstruction(t *testing.T) {
	c, err := NewCBF(512*1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Entries() != 1<<20 {
		t.Fatalf("512KB at 4 bits: %d entries, want 2^20", c.Entries())
	}
	if c.CounterBits() != 4 {
		t.Fatal("counter bits")
	}
	// ReDHiP at the same area has 4x the entries — the paper's
	// accuracy-per-bit argument.
	tb, _ := core.NewTable(512*1024, 4)
	if uint64(1)<<tb.PBits() != 4*c.Entries() {
		t.Fatalf("entry ratio: redhip 2^%d vs cbf %d", tb.PBits(), c.Entries())
	}
}

func TestCBFConstructionErrors(t *testing.T) {
	if _, err := NewCBF(0, 4); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewCBF(1024, 1); err == nil {
		t.Error("1-bit counters accepted")
	}
	if _, err := NewCBF(1024, 9); err == nil {
		t.Error("9-bit counters accepted")
	}
}

func TestCBFNonPowerOfTwoBudget(t *testing.T) {
	// 3-bit counters in 512KB: floor to the largest power of two.
	c, err := NewCBF(512*1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Entries() != 1<<20 {
		t.Fatalf("entries = %d, want 2^20", c.Entries())
	}
}

func TestCBFFillEvictBalance(t *testing.T) {
	c, _ := NewCBF(64*1024, 4)
	b := memaddr.Addr(0xdeadbe00).Block()
	if c.PredictPresent(b) {
		t.Fatal("empty filter predicted present")
	}
	c.OnFill(b)
	if !c.PredictPresent(b) {
		t.Fatal("filled block absent")
	}
	c.OnEvict(b)
	if c.PredictPresent(b) {
		t.Fatal("evicted block still present (counter should have hit 0)")
	}
}

func TestCBFNoFalseNegatives(t *testing.T) {
	// Conservative property under arbitrary fill/evict interleavings
	// that mirror real cache behaviour (evict only resident blocks).
	f := func(seed int64) bool {
		c, _ := NewCBF(4*1024, 4)
		rng := rand.New(rand.NewSource(seed))
		resident := map[memaddr.Addr]bool{}
		order := []memaddr.Addr{}
		for i := 0; i < 3000; i++ {
			if rng.Intn(2) == 0 || len(order) == 0 {
				b := memaddr.Addr(rng.Uint64() % (1 << 24)).Block()
				if !resident[b] {
					resident[b] = true
					order = append(order, b)
					c.OnFill(b)
				}
			} else {
				i := rng.Intn(len(order))
				b := order[i]
				order = append(order[:i], order[i+1:]...)
				delete(resident, b)
				c.OnEvict(b)
			}
		}
		for b := range resident {
			if !c.PredictPresent(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCBFSaturationSticks(t *testing.T) {
	c, _ := NewCBF(64, 2) // max counter value 3
	b := memaddr.Addr(0).Block()
	for i := 0; i < 10; i++ {
		c.OnFill(b)
	}
	// Saturated counter is disabled: evictions must not decrement it.
	for i := 0; i < 10; i++ {
		c.OnEvict(b)
	}
	if !c.PredictPresent(b) {
		t.Fatal("saturated counter decremented — breaks conservativeness")
	}
	if c.Stats().Saturated == 0 {
		t.Fatal("saturation not counted")
	}
}

func TestCBFXorHashStaysInRange(t *testing.T) {
	c, _ := NewCBF(8*1024, 4)
	f := func(raw uint64) bool {
		return c.Index(memaddr.Addr(raw).Block()) < c.Entries()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCBFXorHashMixesHighBits(t *testing.T) {
	// Unlike bits-hash, xor-hash must distinguish some blocks that
	// agree in their low bits.
	c, _ := NewCBF(8*1024, 4)
	base := memaddr.Addr(0x1000).Block()
	diff := 0
	for i := uint(20); i < 40; i++ {
		other := base | 1<<i
		if c.Index(other) != c.Index(base) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("xor-hash ignored all high bits")
	}
}

func TestCBFStatsCounts(t *testing.T) {
	c, _ := NewCBF(1024, 4)
	b := memaddr.Addr(0x40).Block()
	c.PredictPresent(b)
	c.OnFill(b)
	c.PredictPresent(b)
	s := c.Stats()
	if s.Lookups != 2 || s.PredictedPresent != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCBFEvictUnknownCountsUnderflow(t *testing.T) {
	c, _ := NewCBF(1024, 4)
	c.OnEvict(memaddr.Addr(0x40).Block())
	if c.Stats().Underflows != 1 {
		t.Fatal("underflow not counted")
	}
}
