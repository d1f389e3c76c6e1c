package predictor

import (
	"math/rand"
	"testing"

	"redhip/internal/cache"
	"redhip/internal/memaddr"
)

func TestMirrorTableConstruction(t *testing.T) {
	if _, err := NewMirrorTable(0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewMirrorTable(1000); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := NewMirrorTable(4096); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorTracksFillEvict(t *testing.T) {
	m, _ := NewMirrorTable(4096)
	b := memaddr.Addr(0x1234).Block()
	if m.PredictPresent(b) {
		t.Fatal("fresh mirror predicted present")
	}
	m.OnFill(b)
	if !m.PredictPresent(b) {
		t.Fatal("filled block absent")
	}
	m.OnEvict(b)
	if m.PredictPresent(b) {
		t.Fatal("evicted block present (no aliasing here)")
	}
}

func TestMirrorAliasedRefcounts(t *testing.T) {
	m, _ := NewMirrorTable(64) // 512 entries; easy to alias
	a := memaddr.Addr(0).Block()
	alias := a + 512 // same index
	m.OnFill(a)
	m.OnFill(alias)
	m.OnEvict(a)
	// The aliased entry still has one resident block: must stay present.
	if !m.PredictPresent(alias) {
		t.Fatal("refcount dropped to zero with a resident aliased block")
	}
	m.OnEvict(alias)
	if m.PredictPresent(alias) {
		t.Fatal("entry present after all aliased blocks evicted")
	}
}

func TestMirrorUnderflowPanics(t *testing.T) {
	m, _ := NewMirrorTable(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	m.OnEvict(memaddr.Addr(0x40).Block())
}

func TestMirrorExactlyMirrorsCache(t *testing.T) {
	// Feed the mirror the fill/evict stream of a real cache; its
	// predictions must equal the aliased ground truth at every point.
	llc, err := cache.New(cache.Geometry{Name: "L4", SizeBytes: 64 << 10, Ways: 4, Banks: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMirrorTable(256) // 2048 entries
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 30000; i++ {
		b := memaddr.Addr(rng.Uint64() % (1 << 22)).Block()
		if !llc.Contains(b) {
			ev, was := llc.Fill(b)
			m.OnFill(b)
			if was {
				m.OnEvict(ev)
			}
		}
		if i%997 == 0 {
			probe := memaddr.Addr(rng.Uint64() % (1 << 22)).Block()
			idx := uint64(probe) & 2047
			truth := false
			llc.ForEachBlock(func(r memaddr.Addr) {
				if uint64(r)&2047 == idx {
					truth = true
				}
			})
			if m.PredictPresent(probe) != truth {
				t.Fatalf("mirror disagrees with aliased ground truth at step %d", i)
			}
		}
	}
}
