package sim

import (
	"fmt"
	"time"

	"redhip/internal/redhipassert"
	"redhip/internal/trace"
	"redhip/internal/workload"
)

// This file is the shared front half of the engine: one trace
// decode/refill pipeline that feeds every per-scheme back half of a
// pass (one back half for Run). The front materialises each core's
// reference stream exactly once, in batchRefs-sized blocks that never
// straddle the warmup/measurement boundary, so every back half sees
// byte-for-byte the same windows whatever the pass width.
//
// Two storage modes, chosen per core at build time:
//
//   - stable: the source implements workload.StableWindowSource
//     (tracestore replays), so a block is a zero-copy view of the
//     immutable backing records — the front stores slice headers only.
//   - generated: live sources are bulk-generated into front-owned
//     slabs. Retired slabs (blocks every consumer has passed) return
//     to a free list, so steady-state generation allocates nothing and
//     resident memory is bounded by the cross-scheme skew plus the
//     lookahead, not the trace length — the paper-scale 500M-reference
//     streams never exist in memory at once.
//
// Concurrency discipline: the RunMulti driver alternates a
// single-threaded generate/retire phase with a parallel simulate
// phase. Block storage is only written between simulate phases and
// only read during them (each feed cursor is owned by one engine), so
// the structure needs no locks; the driver's barrier provides the
// happens-before edges -race checks.

// frontLookahead is how many blocks per core the front generates beyond
// the furthest consumer each round. Larger lookahead means longer
// simulate phases between barriers at the cost of resident records:
// 4 blocks x 4096 records x 24 B = 384 KiB per core.
const frontLookahead = 4

// feedStatus is the outcome of a block pull.
type feedStatus uint8

const (
	feedOK      feedStatus = iota
	feedBlocked            // block not generated yet; suspend and retry next round
	feedEOF                // source exhausted (or stream complete)
)

// coreStream is one core's block pipeline.
type coreStream struct {
	batch  workload.BatchSource  // generated mode (nil in stable mode)
	stable workload.WindowSource // stable mode: zero-copy views

	// ring holds blocks [retired, head) at index blk%len(ring),
	// growing when the live span outruns the capacity.
	ring    [][]trace.Record
	retired uint64 // lowest live block index
	head    uint64 // next block index to generate
	total   uint64 // block count of the full stream (all windows)

	free      [][]trace.Record // retired generated-mode slabs for reuse
	exhausted bool             // source returned a short block
}

// traceFront owns the per-core block pipelines plus the stream
// metadata the back halves need.
type traceFront struct {
	cores    int
	name     string
	cpi      []float64
	streams  []coreStream
	windows  []uint64 // window lengths: optional warmup, then measurement
	genNanos int64    // wall time inside source generation (the generate phase)
}

// newTraceFront builds the front over the per-core sources for the
// window structure cfg describes.
func newTraceFront(cfg *Config, sources []workload.Source) (*traceFront, error) {
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(sources), cfg.Cores)
	}
	f := &traceFront{
		cores:   cfg.Cores,
		name:    sources[0].Name(),
		cpi:     make([]float64, cfg.Cores),
		streams: make([]coreStream, cfg.Cores),
	}
	if cfg.WarmupRefsPerCore > 0 {
		f.windows = append(f.windows, cfg.WarmupRefsPerCore)
	}
	f.windows = append(f.windows, cfg.RefsPerCore)
	total := uint64(0)
	for _, l := range f.windows {
		total += (l + batchRefs - 1) / batchRefs
	}
	for c, s := range sources {
		f.cpi[c] = s.CPI()
		st := &f.streams[c]
		st.total = total
		if sw, ok := s.(workload.StableWindowSource); ok && sw.StableWindows() {
			st.stable = sw
		} else {
			st.batch = workload.AsBatch(s)
		}
	}
	return f, nil
}

// blockLen returns the record count of block idx: batchRefs except for
// each window's final block, which holds the remainder so no block
// straddles a warmup/measurement boundary. This is exactly the size an
// engine's refill requests at the same point (refill caps at the
// references the core still owes the window).
func (f *traceFront) blockLen(idx uint64) uint64 {
	for _, l := range f.windows {
		nb := (l + batchRefs - 1) / batchRefs
		if idx < nb {
			if idx == nb-1 {
				if rem := l % batchRefs; rem != 0 {
					return rem
				}
			}
			return batchRefs
		}
		idx -= nb
	}
	return 0
}

// extend generates core c's blocks up to and including index upto
// (clamped to the stream's end). Single-threaded: only the driver's
// generate phase calls this, never concurrently with block reads.
func (f *traceFront) extend(c int, upto uint64) {
	st := &f.streams[c]
	for st.head <= upto && st.head < st.total && !st.exhausted {
		want := f.blockLen(st.head)
		start := time.Now() //redhip:allow wallclock -- genNanos perf attribution only
		var blk []trace.Record
		if st.stable != nil {
			blk = st.stable.Window(int(want))
		} else {
			slab := st.slab()
			n := st.batch.NextBatch(slab[:want])
			blk = slab[:n]
		}
		f.genNanos += time.Since(start).Nanoseconds() //redhip:allow wallclock -- genNanos perf attribution only
		if uint64(len(blk)) < want {
			st.exhausted = true
			if len(blk) == 0 {
				return
			}
		}
		st.push(blk)
	}
}

// advance is the driver's generate phase: for every core it retires the
// blocks all feeds have passed and generates frontLookahead blocks past
// the furthest one.
func (f *traceFront) advance(feeds []*multiFeed) {
	for c := 0; c < f.cores; c++ {
		minCur, maxCur := frontCursorBounds(feeds, c)
		f.retire(c, minCur)
		f.extend(c, maxCur+frontLookahead)
	}
}

// retire drops core c's blocks below upto: generated-mode slabs return
// to the free list, stable-mode views are released.
func (f *traceFront) retire(c int, upto uint64) {
	st := &f.streams[c]
	for st.retired < upto && st.retired < st.head {
		i := st.retired % uint64(len(st.ring))
		if blk := st.ring[i]; blk != nil && st.batch != nil && cap(blk) >= batchRefs {
			st.free = append(st.free, blk[:0])
		}
		st.ring[i] = nil
		st.retired++
	}
}

// slab returns a generation buffer of batchRefs capacity, reusing a
// retired one when available.
func (st *coreStream) slab() []trace.Record {
	if n := len(st.free); n > 0 {
		s := st.free[n-1]
		st.free = st.free[:n-1]
		return s[:batchRefs]
	}
	return make([]trace.Record, batchRefs)
}

// push appends a block at st.head, growing the ring when the live span
// fills it.
func (st *coreStream) push(blk []trace.Record) {
	if n := uint64(len(st.ring)); n == 0 || st.head-st.retired == n {
		grown := make([][]trace.Record, max(8, 2*len(st.ring)))
		for b := st.retired; b < st.head; b++ {
			grown[b%uint64(len(grown))] = st.ring[b%n]
		}
		st.ring = grown
	}
	st.ring[st.head%uint64(len(st.ring))] = blk
	st.head++
}

// multiFeed is one back half's read cursor over the front: a per-core
// next-block index. Each engine owns exactly one feed, so cursor
// advances are single-threaded even during the parallel simulate
// phase; the blocks themselves are shared read-only.
type multiFeed struct {
	f   *traceFront
	cur []uint64 // per-core next block index
}

func newMultiFeed(f *traceFront) *multiFeed {
	return &multiFeed{f: f, cur: make([]uint64, f.cores)}
}

// next pulls core c's next block. want is the refill size the engine
// computed from its window budget; the front's block boundaries make
// the two agree except when the source ran dry early.
func (m *multiFeed) next(c int, want uint64) ([]trace.Record, feedStatus) {
	st := &m.f.streams[c]
	b := m.cur[c]
	if b >= st.head {
		if st.exhausted || b >= st.total {
			return nil, feedEOF
		}
		return nil, feedBlocked
	}
	blk := st.ring[b%uint64(len(st.ring))]
	if redhipassert.Enabled {
		redhipassert.Check(blk != nil, "sim: multi feed pulled a retired block")
		redhipassert.Check(uint64(len(blk)) == want || st.exhausted,
			"sim: front block size disagrees with engine refill request")
	}
	m.cur[c] = b + 1
	return blk, feedOK
}

// frontCursorBounds returns, for core c, the highest block index safe
// to retire below (minCur) and the furthest consumer position (maxCur).
// A feed's cursor is the NEXT block it will pull, so block cur-1 may
// still be live as the engine's current window (a suspended engine
// holds partially consumed windows on every core, not just the one it
// blocked on) — retirement must stay below cur-1, not cur, or the
// generate phase would recycle a slab an engine is still reading.
func frontCursorBounds(feeds []*multiFeed, c int) (minCur, maxCur uint64) {
	minCur = ^uint64(0)
	for _, m := range feeds {
		if m == nil {
			continue
		}
		low := m.cur[c]
		if low > 0 {
			low-- // block cur-1 may be the engine's live window
		}
		if low < minCur {
			minCur = low
		}
		if m.cur[c] > maxCur {
			maxCur = m.cur[c]
		}
	}
	if minCur == ^uint64(0) {
		minCur = 0
	}
	return minCur, maxCur
}
