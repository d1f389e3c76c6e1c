package workload

import (
	"fmt"

	"redhip/internal/memaddr"
)

// A component produces the address stream of one access pattern inside
// a workload. Components generate byte addresses inside a private
// region of the address space; the mixture source (source.go) picks a
// component per access according to the profile weights.
type component interface {
	// next returns the next byte address and a PC slot identifying
	// which synthetic instruction issued it (streams keep a stable PC
	// per sub-stream so the stride prefetcher sees realistic PCs). The
	// rng is owned by the enclosing source, so replays are
	// deterministic.
	next(r *rng) (memaddr.Addr, int)
	// reset re-derives all internal position state from the rng so a
	// source can be replayed from scratch.
	reset(r *rng)
	// footprint returns the region size in bytes the component touches.
	footprint() uint64
}

// region assigns each component a disjoint piece of the address space.
// Regions are spaced 1 TiB apart so no two components ever alias, which
// keeps the locality of each pattern pure.
const regionStride = 1 << 40

func regionBase(i int) memaddr.Addr { return memaddr.Addr(uint64(i+1) * regionStride) }

// --- sequential stream ----------------------------------------------------

// streamComponent walks a region sequentially with a fixed element
// size, wrapping at the end. With 8-byte elements in 64-byte blocks,
// 7 of 8 accesses hit the L1 via spatial locality and every 8th access
// touches a new block — the classic streaming pattern (lbm, bwaves).
type streamComponent struct {
	base    memaddr.Addr
	size    uint64 // bytes
	elem    uint64 // element size in bytes
	pos     uint64
	backing bool // if true, stream reverses at the ends instead of wrapping
	dir     int64
}

func newStream(base memaddr.Addr, size, elem uint64) *streamComponent {
	if elem == 0 {
		elem = 8
	}
	return &streamComponent{base: base, size: size, elem: elem, dir: 1}
}

func (c *streamComponent) next(r *rng) (memaddr.Addr, int) {
	a := c.base + memaddr.Addr(c.pos)
	if c.backing {
		np := int64(c.pos) + c.dir*int64(c.elem)
		if np < 0 || uint64(np) >= c.size {
			c.dir = -c.dir
			np = int64(c.pos) + c.dir*int64(c.elem)
		}
		c.pos = uint64(np)
	} else {
		c.pos += c.elem
		if c.pos >= c.size {
			c.pos = 0
		}
	}
	return a, 0
}

func (c *streamComponent) reset(r *rng) { c.pos = 0; c.dir = 1 }

func (c *streamComponent) footprint() uint64 { return c.size }

// --- strided multi-stream --------------------------------------------------

// stridedComponent interleaves several concurrent streams, each with
// its own large stride — the pattern of multi-dimensional array sweeps
// (milc, GemsFDTD, cactusADM stencils). Large strides defeat spatial
// locality in L1 while remaining perfectly predictable for a stride
// prefetcher.
type stridedComponent struct {
	base    memaddr.Addr
	size    uint64
	strides []uint64
	pos     []uint64
	turn    int
}

func newStrided(base memaddr.Addr, size uint64, strides []uint64) *stridedComponent {
	c := &stridedComponent{base: base, size: size, strides: strides}
	c.pos = make([]uint64, len(strides))
	for i := range c.pos {
		// Offset the streams so they sweep different parts of the region.
		c.pos[i] = (size / uint64(len(strides))) * uint64(i)
	}
	return c
}

func (c *stridedComponent) next(r *rng) (memaddr.Addr, int) {
	i := c.turn
	c.turn = (c.turn + 1) % len(c.strides)
	a := c.base + memaddr.Addr(c.pos[i])
	c.pos[i] += c.strides[i]
	if c.pos[i] >= c.size {
		c.pos[i] -= c.size
	}
	return a, i
}

func (c *stridedComponent) reset(r *rng) {
	c.turn = 0
	for i := range c.pos {
		c.pos[i] = (c.size / uint64(len(c.strides))) * uint64(i)
	}
}

func (c *stridedComponent) footprint() uint64 { return c.size }

// --- pointer chase ----------------------------------------------------------

// chaseComponent emulates pointer chasing over a region (mcf, astar,
// graph traversals): each access lands on an unpredictable block, with
// the walk visiting every block in the region before repeating. The
// walk is a full-period LCG over the region's block count, which gives
// a deterministic pseudo-random permutation with O(1) state: with
// c odd and a ≡ 1 (mod 4), x' = a*x + c (mod 2^m) has period 2^m
// (Hull–Dobell theorem).
type chaseComponent struct {
	base      memaddr.Addr
	blockBits uint // region holds 2^blockBits blocks
	x         uint64
	inc       uint64 // odd LCG increment; per-instance so two walks over
	// the same shared region follow different orbits (Hull–Dobell
	// holds for any odd increment)
}

func newChase(base memaddr.Addr, blockBits uint) *chaseComponent {
	return &chaseComponent{base: base, blockBits: blockBits}
}

const (
	lcgA = 6364136223846793005 // Knuth MMIX multiplier; a ≡ 1 (mod 4)
	lcgC = 1442695040888963407 // odd increment
)

func (c *chaseComponent) next(r *rng) (memaddr.Addr, int) {
	mask := uint64(1)<<c.blockBits - 1
	inc := c.inc
	if inc == 0 {
		inc = lcgC
	}
	c.x = (lcgA*c.x + inc) & mask
	// Scatter the access within the block a little so offsets look real.
	off := r.intn(memaddr.BlockSize/8) * 8
	return c.base + memaddr.Addr(c.x<<memaddr.BlockBits+off), 0
}

func (c *chaseComponent) reset(r *rng) {
	c.x = r.next() & (1<<c.blockBits - 1)
	c.inc = r.next() | 1
}

func (c *chaseComponent) footprint() uint64 { return 1 << (c.blockBits + memaddr.BlockBits) }

// --- hot set ---------------------------------------------------------------

// hotComponent accesses a small region uniformly at random — the
// register-spill / stack / hot-data accesses that give real programs
// their high L1 hit rates.
type hotComponent struct {
	base memaddr.Addr
	size uint64
}

func newHot(base memaddr.Addr, size uint64) *hotComponent {
	return &hotComponent{base: base, size: size}
}

func (c *hotComponent) next(r *rng) (memaddr.Addr, int) {
	return c.base + memaddr.Addr(r.intn(c.size/8)*8), int(r.intn(4))
}

func (c *hotComponent) reset(r *rng) {}

func (c *hotComponent) footprint() uint64 { return c.size }

// --- zipf over blocks --------------------------------------------------------

// zipfComponent draws blocks from an approximately Zipf-distributed
// popularity ranking over a region: a few blocks are very hot, with a
// long cold tail (sparse matrix rows, graph vertices with power-law
// degree — pmf, blas). Implemented by exponentiating a uniform draw,
// which concentrates mass near rank 0; the skew parameter is the
// exponent (larger = more skewed).
type zipfComponent struct {
	base   memaddr.Addr
	blocks uint64
	skew   float64
}

func newZipf(base memaddr.Addr, size uint64, skew float64) *zipfComponent {
	b := size / memaddr.BlockSize
	if b == 0 {
		b = 1
	}
	return &zipfComponent{base: base, blocks: b, skew: skew}
}

func (c *zipfComponent) next(r *rng) (memaddr.Addr, int) {
	u := r.float64()
	// rank in [0,1): u^skew pushes mass toward 0 for skew > 1.
	rank := u
	for i := 1.0; i < c.skew; i++ {
		rank *= u
	}
	block := uint64(rank * float64(c.blocks))
	if block >= c.blocks {
		block = c.blocks - 1
	}
	off := r.intn(memaddr.BlockSize/8) * 8
	return c.base + memaddr.Addr(block<<memaddr.BlockBits+off), 0
}

func (c *zipfComponent) reset(r *rng) {}

func (c *zipfComponent) footprint() uint64 { return c.blocks * memaddr.BlockSize }

// --- validation ---------------------------------------------------------------

func validateSize(what string, size uint64) error {
	if size < memaddr.BlockSize {
		return fmt.Errorf("workload: %s region (%d bytes) smaller than one block", what, size)
	}
	return nil
}
