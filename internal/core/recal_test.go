package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"redhip/internal/cache"
	"redhip/internal/memaddr"
)

// TestRecalibrateRebuildsExactly pins the paper's recalibration
// property: a rebuild leaves exactly the entries of the resident
// blocks set (no false positive, no false negative) and costs what the
// per-set model says. Caches of several geometries are filled with
// random blocks, some of them then invalidated, so the tag array holds
// invalid ways between valid ones and the table holds stale bits
// before the sweep.
func TestRecalibrateRebuildsExactly(t *testing.T) {
	geos := []struct {
		size uint64
		ways int
	}{
		{8 << 10, 2},
		{64 << 10, 4},
		{256 << 10, 8},
		{1 << 20, 16},
	}
	const tagReadNJ, lineWriteNJ = 1.171, 0.02
	for _, g := range geos {
		for _, hash := range []HashKind{HashBits, HashXor} {
			// Tables at, below and above the paper's 1/128 ratio.
			for _, ptBytes := range []uint64{g.size / 512, g.size / 128, g.size / 32} {
				name := fmt.Sprintf("%dKiB/%dway/%s/pt=%dB", g.size>>10, g.ways, hash, ptBytes)
				t.Run(name, func(t *testing.T) {
					llc, err := cache.New(cache.Geometry{Name: "L4", SizeBytes: g.size, Ways: g.ways, Banks: 4})
					if err != nil {
						t.Fatal(err)
					}
					tb, err := NewTableHash(ptBytes, 4, hash)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(g.size) + int64(ptBytes) + int64(hash)))
					blocks := int(g.size / memaddr.BlockSize)
					for i := 0; i < 2*blocks; i++ {
						b := memaddr.Addr(rng.Uint64() % (1 << 34)).Block()
						llc.Fill(b)
						tb.Set(b)
						if rng.Intn(3) == 0 {
							llc.Invalidate(b)
						}
					}

					cost := tb.Recalibrate(llc, tagReadNJ, lineWriteNJ)

					want := make([]uint64, len(tb.words))
					resident := uint64(0)
					llc.ForEachBlock(func(b memaddr.Addr) {
						idx := tb.Index(b)
						want[idx/LineBits] |= 1 << (idx % LineBits)
						resident++
					})
					if resident == 0 || resident == uint64(blocks) {
						t.Fatalf("%d of %d blocks resident: the cache must hold valid and invalid ways", resident, blocks)
					}
					if !slices.Equal(tb.words, want) {
						var fp, fn int
						for i := range want {
							fp += bits.OnesCount64(tb.words[i] &^ want[i])
							fn += bits.OnesCount64(want[i] &^ tb.words[i])
						}
						t.Fatalf("rebuilt table differs from the resident blocks: %d false positives, %d false negatives", fp, fn)
					}

					sets := uint64(llc.NumSets())
					wantCost := RecalCost{EnergyNJ: float64(sets)*tagReadNJ + float64(ptBytes*8/LineBits)*lineWriteNJ}
					if hash == HashBits {
						wantCost.Cycles = (sets + 3) / 4
					} else {
						wantCost.Cycles = resident
					}
					if cost != wantCost {
						t.Fatalf("recalibration cost %+v, want %+v", cost, wantCost)
					}
					if got := tb.Stats().Recalibrations; got != 1 {
						t.Fatalf("%d recalibrations counted, want 1", got)
					}
				})
			}
		}
	}
}
