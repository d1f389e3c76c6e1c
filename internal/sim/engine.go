package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"redhip/internal/cache"
	"redhip/internal/core"
	"redhip/internal/energy"
	"redhip/internal/memaddr"
	"redhip/internal/predictor"
	"redhip/internal/prefetch"
	"redhip/internal/redhipassert"
	"redhip/internal/trace"
	"redhip/internal/workload"
)

// predKind names the engine's LLC predictor; every consultation, fill
// and eviction notice dispatches on it to the concrete type.
type predKind uint8

const (
	predNone   predKind = iota // Base/Phased, or Exclusive (per-level tables)
	predOracle                 // perfect: prediction == l4.Contains
	predMirror                 // *predictor.MirrorTable (RecalPeriod == 1)
	predTable                  // *core.Table, recalibrated periodically
	predCBF                    // *predictor.CBF
)

// batchRefs is the per-core refill block size. One block amortises
// source dispatch, timing and the Interrupt poll over a few thousand
// references: 4K records x 24 bytes = 96 KiB per core — small enough
// to stay cache-friendly, large enough that refill overhead vanishes.
const batchRefs = 4096

// engine holds the mutable state of one simulation run.
type engine struct {
	cfg *Config
	par *energy.Params //redhip:transient config-derived energy parameters, rebuilt by build

	// Hierarchy: private L1-L3 per core, shared L4.
	l1, l2, l3 []*cache.Cache
	l4         *cache.Cache

	// LLC predictor for CBF/ReDHiP/Oracle under Inclusive/Hybrid: kind
	// selects which concrete pointer is live. predDelay and predNJ are
	// the per-consultation cost (zero for the Oracle).
	kind      predKind //redhip:transient derived from cfg.Scheme at build
	mirror    *predictor.MirrorTable
	ptable    *core.Table
	cbf       *predictor.CBF
	predDelay float64 //redhip:transient PT lookup + wire delay (config-derived), added to the core clock
	predNJ    float64 //redhip:transient PT access energy per consultation, config-derived

	// Per-level tables for ReDHiP under Exclusive (Section III-C):
	// exL2/exL3 per core, exL4 shared.
	exL2, exL3 []*core.Table
	exL4       *core.Table
	exDelay    float64 //redhip:transient PTDelay+PTWireDelay for the simultaneous query, config-derived

	// Per-level delays precomputed as float64 so the reference loop
	// performs no uint32 conversions or max() calls.
	parDelay   [energy.NumLevels]float64 //redhip:transient config-derived delay table, rebuilt by build
	tagDelay   [energy.NumLevels]float64 //redhip:transient config-derived delay table, rebuilt by build
	dataDelay  [energy.NumLevels]float64 //redhip:transient config-derived delay table, rebuilt by build
	memLatency float64                   //redhip:transient config-derived, rebuilt by build

	clock []float64 //redhip:transient per-core cycle counts, reset at the warmup/measure boundary
	cpi   []float64 //redhip:transient per-core CPI config, copied from the sources by newMultiEngine
	// Batched reference pipeline: the loop consumes records from a
	// per-core window (win[c][pos[c]]) and refills it one block
	// (batchRefs records) at a time, so block dispatch is paid once per
	// few thousand references, not once per reference. Each core reads
	// its own cursor: a trace replay hands out zero-copy views of its
	// backing records; any other source bulk-generates into buf[c].
	// A replay's window holds its stream's stored records; off[c] is
	// the core's address offset, added to every record it consumes.
	win    [][]trace.Record        //redhip:transient current per-core record windows, per-run scratch
	pos    []int                   //redhip:transient consumption cursor within win[c], per-run scratch
	off    []memaddr.Addr          //redhip:transient per-core replay address offsets, attached by the driver per run
	replay []*workload.TraceSource //redhip:transient per-core replay cursors, attached by the driver per run
	batch  []workload.BatchSource  //redhip:transient per-core non-replay sources, attached by the driver per run
	buf    [][]trace.Record        //redhip:transient generation buffers for batch sources, per-run scratch
	pf     []*prefetch.Prefetcher

	// Scheduler state: sched picks the next core to run; remaining
	// counts references left per core. Both are allocated once in build
	// so runWindow is allocation-free. schedDirty flags the one event
	// (recalibration) that bumps every core's clock behind sched's back.
	sched      coreSched //redhip:transient scheduler state, rebuilt at window start
	remaining  []uint64  //redhip:transient scheduler state, rebuilt at window start
	schedDirty bool      //redhip:transient scheduler state, rebuilt at window start

	// Driver wiring: interrupt is MultiOptions.Interrupt, polled once
	// per refill; halt holds the error that aborted the run; runErr and
	// the wall-time counters carry the outcome back to the RunMulti
	// driver. phase is where run resumes; quota counts the refills the
	// current slice may still make.
	interrupt func() error //redhip:transient driver wiring, re-attached per run
	halt      error        //redhip:transient driver wiring, re-attached per run
	runErr    error        //redhip:transient driver wiring, re-attached per run
	phase     runPhase     //redhip:transient driver progress, not simulated state
	quota     int          //redhip:transient driver slice budget, not simulated state
	runNanos  int64        //redhip:transient wall-time accounting, not simulated state
	genNanos  int64        //redhip:transient wall-time accounting, not simulated state
	// snapSink, when non-nil, fires exactly once at the warmup/measure
	// boundary (after resetMeasurement, before the measure window) so
	// the RunMulti driver can capture this engine's warm state;
	// restoreNanos records the time spent re-seating a restored engine.
	snapSink     func() //redhip:transient snapshot plumbing itself, re-attached by the driver
	restoreNanos int64  //redhip:transient wall-time accounting, not simulated state

	meter            energy.Meter //redhip:transient measurement accumulator, reset at the warmup/measure boundary
	res              *Result      //redhip:transient measurement output, reset at the warmup/measure boundary
	missesSinceRecal uint64

	// Adaptive predictor disable (Section IV): per-epoch monitoring.
	adaptOn        bool   // predictor currently consulted
	adaptStreak    int    // consecutive disabled epochs (for probing)
	epochRefs      uint64 // refs seen in the current epoch
	epochStartMiss uint64
	epochStartTN   uint64
	pfBuf          []memaddr.Addr //redhip:transient per-call prefetch scratch buffer
	// prefetched holds one mark per hashed block slot (pfSlot), storing
	// only occupied slots in a table that grows to its high-water size.
	// The largest table is 8 MiB; growing into it holds 12 MiB at peak.
	// A newer mark overwrites an older one in its slot, so
	// Prefetch.Useful is a slight undercount under pressure — the same
	// stats-only approximation the previous map-based tracker made when
	// it cleared itself at 2^20 entries.
	prefetched pfFilter
	fnBlock    memaddr.Addr // first false negative seen, for the error
	fnSeen     bool
}

func (e *engine) build() error {
	cfg := e.cfg
	// Apply the configured replacement policy to every level.
	cfg.L1.Replacement = cfg.Replacement
	cfg.L2.Replacement = cfg.Replacement
	cfg.L3.Replacement = cfg.Replacement
	cfg.L4.Replacement = cfg.Replacement
	e.l1 = make([]*cache.Cache, cfg.Cores)
	e.l2 = make([]*cache.Cache, cfg.Cores)
	e.l3 = make([]*cache.Cache, cfg.Cores)
	e.clock = perCore[float64](cfg.Cores)
	e.cpi = perCore[float64](cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		var err error
		if e.l1[c], err = cache.New(cfg.L1); err != nil {
			return err
		}
		if e.l2[c], err = cache.New(cfg.L2); err != nil {
			return err
		}
		if e.l3[c], err = cache.New(cfg.L3); err != nil {
			return err
		}
	}
	var err error
	if e.l4, err = cache.New(cfg.L4); err != nil {
		return err
	}

	ptDelay := float64(cfg.Energy.PTDelay + cfg.Energy.PTWireDelay)
	ptNJ := cfg.Energy.PTAccessNJ
	if cfg.IgnorePredictionOverhead {
		ptDelay, ptNJ = 0, 0
	}
	switch cfg.Scheme {
	case Base, Phased:
		// No predictor: every L1 miss walks the hierarchy.
	case Oracle:
		// Free (Section IV), so it carries no lookup cost. Under
		// Exclusive the per-level oracle is handled inline in the walk.
		if cfg.Inclusion != Exclusive {
			e.kind = predOracle
		}
	case CBF:
		if e.cbf, err = predictor.NewCBF(cfg.PTBytes, cfg.CBFCounterBits); err != nil {
			return err
		}
		e.kind = predCBF
		e.predDelay, e.predNJ = ptDelay, ptNJ
	case ReDHiP:
		if cfg.Inclusion == Exclusive {
			// Per-level tables at the same 0.78% overhead ratio.
			e.exL2 = make([]*core.Table, cfg.Cores)
			e.exL3 = make([]*core.Table, cfg.Cores)
			for c := 0; c < cfg.Cores; c++ {
				if e.exL2[c], err = core.NewForCache(cfg.L2.SizeBytes, cfg.PTBanks); err != nil {
					return err
				}
				if e.exL3[c], err = core.NewForCache(cfg.L3.SizeBytes, cfg.PTBanks); err != nil {
					return err
				}
			}
			if e.exL4, err = core.NewTable(cfg.PTBytes, cfg.PTBanks); err != nil {
				return err
			}
			e.exDelay = ptDelay
		} else if cfg.RecalPeriod == 1 {
			// Recalibrating after every miss == exactly mirroring the
			// LLC contents modulo hash aliasing; simulate that directly.
			if e.mirror, err = predictor.NewMirrorTable(cfg.PTBytes); err != nil {
				return err
			}
			e.kind = predMirror
			e.predDelay, e.predNJ = ptDelay, ptNJ
		} else {
			if e.ptable, err = core.NewTableHash(cfg.PTBytes, cfg.PTBanks, cfg.PTHash); err != nil {
				return err
			}
			e.kind = predTable
			e.predDelay, e.predNJ = ptDelay, ptNJ
		}
	}
	for l := energy.L1; l < energy.NumLevels; l++ {
		lv := &e.par.Levels[l]
		e.parDelay[l] = float64(lv.ParallelDelay())
		e.tagDelay[l] = float64(lv.TagDelay)
		e.dataDelay[l] = float64(lv.DataDelay)
	}
	e.memLatency = float64(cfg.MemoryLatencyCycles)
	e.sched = newCoreSched(cfg.Cores)
	e.remaining = perCore[uint64](cfg.Cores)
	e.win = perCore[[]trace.Record](cfg.Cores)
	e.pos = perCore[int](cfg.Cores)
	e.off = perCore[memaddr.Addr](cfg.Cores)

	e.adaptOn = true
	if cfg.EnablePrefetch {
		e.pf = make([]*prefetch.Prefetcher, cfg.Cores)
		for c := 0; c < cfg.Cores; c++ {
			if e.pf[c], err = prefetch.New(cfg.Prefetch); err != nil {
				return err
			}
		}
		e.pfBuf = make([]memaddr.Addr, 0, 8)
		e.prefetched = newPFFilter()
	}
	return nil
}

// linePad is the slack, in elements, perCore leaves on each side of an
// array: at 8 bytes or more per element it spans a 64-byte cache line.
const linePad = 8

// perCore allocates a per-core array with a cache line of slack on each
// side. The scheduler reads or writes these arrays on every reference,
// and the engines of one pass are built back to back, so unpadded
// arrays of neighbouring engines share cache lines: engines simulating
// on different workers then invalidate each other's lines, which cost
// a five-scheme smoke pass at two workers about 40% of its wall time.
func perCore[T any](n int) []T {
	return make([]T, n+2*linePad)[linePad : linePad+n : linePad+n]
}

// beginWindow arms a new window of refsPerCore references per core and
// rebuilds the scheduler over the cores with work left.
func (e *engine) beginWindow(refsPerCore uint64) {
	for c := range e.remaining {
		e.remaining[c] = refsPerCore
	}
	e.reseat()
}

// reseat reloads every scheduler key from e.clock — +Inf for a core
// with no work left — and rebuilds the tree.
func (e *engine) reseat() {
	for c, clk := range e.clock {
		if e.remaining[c] == 0 {
			clk = math.Inf(1)
		}
		if redhipassert.Enabled {
			redhipassert.Check(math.Float64bits(clk) <= infKey, "sim: core clock negative or NaN")
		}
		e.sched.key[c] = math.Float64bits(clk)
	}
	e.sched.rebuild()
	e.schedDirty = false
}

// runWindow runs the deterministic min-time interleaving until the
// armed window completes: the core with the smallest local clock
// executes its next reference (ties break toward the lower core
// index). The scheduler is a loser tree keyed on (clock, core id) — a
// total order, so it selects exactly the core a linear scan would, and
// after each reference only the running core's leaf-to-root path is
// replayed: log2(cores) compares. The loop performs no allocations:
// the tree and remaining counters are built once per engine.
//
// Every reference probes its core's L1 here; only an L1 miss dispatches
// on the inclusion policy to walk the levels below.
//
// It returns true once every core has run its window, and false when
// it stopped early: at a refill point with the slice's quota used up,
// or because the Interrupt poll aborted the window (e.halt holds why).
//
//redhip:hotpath
func (e *engine) runWindow() bool {
	cfg := e.cfg
	adaptive := cfg.AdaptiveDisable
	incl := cfg.Inclusion
	inf := math.Inf(1)
	for {
		if e.sched.tree[0].key == infKey {
			return true
		}
		c := int(e.sched.tree[0].id)
		if e.pos[c] == len(e.win[c]) {
			// A yield leaves c at the root, so the next slice re-reads
			// tree[0] and makes this very refill.
			if e.quota == 0 {
				return false
			}
			e.quota--
			if !e.refill(c) {
				if e.halt != nil {
					return false
				}
				e.remaining[c] = 0
				e.sched.replay(c, inf)
				continue
			}
		}
		rec := &e.win[c][e.pos[c]]
		e.pos[c]++
		e.remaining[c]--
		e.res.Refs++
		if adaptive {
			e.epochTick()
		}
		// The core's clock lives in clk until the probe: the gap and the
		// L1 delay are added in chargeParallel's order and stored once,
		// and a hit replays the scheduler with clk as it stands.
		clk := e.clock[c] + float64(rec.Gap)*e.cpi[c]
		addr := rec.Addr + e.off[c]
		block := addr.Block()
		e.meter.AddParallel(energy.L1, e.par)
		clk += e.parDelay[energy.L1]
		e.clock[c] = clk
		if !e.l1[c].Lookup(block) {
			e.onL1Miss()
			switch incl {
			case Inclusive:
				e.missInclusive(c, block, rec.PC, addr)
			case Hybrid:
				e.missHybrid(c, block, rec.PC, addr)
			case Exclusive:
				e.missExclusive(c, block, rec.PC, addr)
			}
			// Recalibration (an L1 miss's doing) stalled every core
			// behind the tree's back, so rebuild it from the clocks and
			// dispatch afresh. Replaying c's path after the rebuild
			// would be wrong: c need no longer be the winner, and
			// replaying a non-winner's path corrupts the tree.
			if e.schedDirty {
				e.reseat()
				continue
			}
			clk = e.clock[c]
		}
		if e.remaining[c] == 0 {
			clk = inf
		}
		e.sched.replay(c, clk)
	}
}

// runPhase is where a resumable run picks up: before its first
// window, inside the warmup window, or inside the measure window.
type runPhase uint8

const (
	phaseStart runPhase = iota
	phaseWarmup
	phaseMeasure
)

// unsliced is the quota of a run that goes to completion in one call.
const unsliced = math.MaxInt

// run drives the engine through its windows — warmup, the boundary
// (resetMeasurement, then the snapshot sink), the measure window, then
// the false-negative check and collect — for at most quota refills,
// and reports whether the engine has finished. An unfinished engine
// stopped at a refill point; the next call resumes there. A
// conservativeness violation is recorded in runErr; an aborting
// Interrupt poll leaves the engine with halt set. Both count as
// finished.
func (e *engine) run(quota int) bool {
	e.quota = quota
	if e.phase == phaseStart {
		e.phase = phaseMeasure
		if e.cfg.WarmupRefsPerCore > 0 {
			e.phase = phaseWarmup
			e.beginWindow(e.cfg.WarmupRefsPerCore)
		} else {
			e.beginWindow(e.cfg.RefsPerCore)
		}
	}
	if e.phase == phaseWarmup {
		if !e.runWindow() {
			return e.halt != nil
		}
		e.resetMeasurement()
		if e.snapSink != nil {
			e.snapSink()
		}
		e.phase = phaseMeasure
		e.beginWindow(e.cfg.RefsPerCore)
	}
	if !e.runWindow() {
		return e.halt != nil
	}
	if e.fnSeen {
		e.runErr = fmt.Errorf("sim: %s predictor produced a false negative for block %v — conservativeness violated", e.cfg.Scheme, e.fnBlock)
		return true
	}
	e.collect()
	return true
}

// refill replaces core c's record window with its source's next block:
// up to batchRefs references, never more than the core still owes this
// window, so no block straddles the warmup/measurement boundary. It
// returns false when the source is exhausted or the Interrupt poll
// fails (e.halt set).
func (e *engine) refill(c int) bool {
	if e.interrupt != nil {
		if e.halt = e.interrupt(); e.halt != nil {
			return false
		}
	}
	want := min(e.remaining[c], batchRefs)
	t0 := time.Now() //redhip:allow wallclock -- genNanos perf attribution only
	var w []trace.Record
	if r := e.replay[c]; r != nil {
		w = r.Window(int(want))
	} else {
		w = e.buf[c][:e.batch[c].NextBatch(e.buf[c][:want])]
	}
	e.genNanos += time.Since(t0).Nanoseconds() //redhip:allow wallclock -- genNanos perf attribution only
	e.win[c], e.pos[c] = w, 0
	return len(w) > 0
}

// --- core scheduler -----------------------------------------------------------

// infKey is the scheduler key of +Inf: a core with no work left.
const infKey = 0x7ff0_0000_0000_0000

// coreSched is the min-time core scheduler: a loser (tournament) tree
// over per-core keys. key[c] is math.Float64bits of core c's clock
// while it has work left and infKey once it is done; the padding
// leaves up to the next power of two hold infKey for good. For the
// engine's clocks — non-negative floats or +Inf — the bit patterns
// order as the floats do, so the tree compares plain integers. Leaf c
// is node len(key)+c; tree[i], for an internal node i, holds the loser
// of the match played there, and tree[0] the overall winner — the core
// a lowest-index-wins linear scan would pick. Entries carry their
// core's key, so a replay compares inside the tree and never chases a
// core id into key.
type coreSched struct {
	key  []uint64
	tree []schedEnt
}

// schedEnt is one core's entry in the tree: its key and id.
type schedEnt struct {
	key uint64
	id  uint64
}

// before reports, as 1 or 0, whether (ak, ai) orders before (bk, bi):
// the borrow out of the 128-bit subtraction (ak:ai) − (bk:bi).
func before(ak, ai, bk, bi uint64) uint64 {
	_, b := bits.Sub64(ai, bi, 0)
	_, b = bits.Sub64(ak, bk, b)
	return b
}

// beats orders entries by (key, id), a total order.
func (a schedEnt) beats(b schedEnt) bool {
	return before(a.key, a.id, b.key, b.id) == 1
}

func newCoreSched(cores int) coreSched {
	n := 1
	for n < cores {
		n <<= 1
	}
	s := coreSched{key: perCore[uint64](n), tree: perCore[schedEnt](n)}
	for c := range s.key {
		s.key[c] = infKey
	}
	return s
}

// side returns the entry that comes up to a match from node i: the
// leaf's core, or the winner stored at an internal node during rebuild.
func (s *coreSched) side(i int) schedEnt {
	if n := len(s.key); i >= n {
		return schedEnt{key: s.key[i-n], id: uint64(i - n)}
	}
	return s.tree[i]
}

// rebuild plays every match afresh from key in O(cores), with no
// scratch: a bottom-up pass stores each internal node's winner, then a
// top-down pass swaps it for the node's loser — the other side, whose
// node still holds its winner because children are visited later.
func (s *coreSched) rebuild() {
	n := len(s.key)
	for i := n - 1; i > 0; i-- {
		a, b := s.side(2*i), s.side(2*i+1)
		if b.beats(a) {
			a = b
		}
		s.tree[i] = a
	}
	s.tree[0] = s.side(1)
	for i := 1; i < n; i++ {
		a, b := s.side(2*i), s.side(2*i+1)
		if s.tree[i].id == a.id {
			a = b
		}
		s.tree[i] = a
	}
}

// replay sets core w's key to clock k and re-plays the matches on w's
// leaf-to-root path. w must be the current winner: the losers on its
// path are then the winners of every sibling subtree, so log2(len(key))
// compares settle the new winner. Each match is branch-free: the
// borrow of the (key, id) comparison becomes a mask that swaps the
// stored loser with the climbing winner when the loser wins, since
// which side wins is data-dependent and mispredicts often.
//
//redhip:hotpath
func (s *coreSched) replay(w int, k float64) {
	key, id := math.Float64bits(k), uint64(w)
	s.key[w] = key
	tree := s.tree
	for i := (len(s.key) + w) >> 1; i > 0; i >>= 1 {
		l := &tree[i]
		m := -before(l.key, l.id, key, id)
		dk, di := (l.key^key)&m, (l.id^id)&m
		l.key ^= dk
		l.id ^= di
		key ^= dk
		id ^= di
	}
	tree[0].key, tree[0].id = key, id
}

// --- shared helpers -----------------------------------------------------------

// chargeFill charges insertion-write energy when the configuration
// models it (the paper's lookup-only accounting does not).
func (e *engine) chargeFill(l energy.Level) {
	if e.cfg.ChargeFills {
		e.meter.AddFill(l, e.par)
	}
}

func (e *engine) chargeParallel(c int, l energy.Level) {
	e.meter.AddParallel(l, e.par)
	e.clock[c] += e.parDelay[l]
}

// lookupSplit performs a demand lookup at L3/L4 with split tag/data
// timing. A parallel access (every scheme but Phased) spends tag AND
// data energy on every probe — the wasted data read on a miss is
// exactly what Phased Cache avoids — but resolves a miss as soon as
// the tag comparison completes (TagDelay) and a hit when the data
// array returns (DataDelay). Phased reads the tag array first and
// touches the data array only on a hit: cheaper misses, but hits pay
// tag-then-data latency back to back (the 3% slowdown of Figure 6).
//
//redhip:hotpath
func (e *engine) lookupSplit(c int, l energy.Level, ch *cache.Cache, block memaddr.Addr) bool {
	if e.cfg.Scheme == Phased {
		e.meter.AddTag(l, e.par)
		e.clock[c] += e.tagDelay[l]
		if ch.Lookup(block) {
			e.meter.AddData(l, e.par)
			e.clock[c] += e.dataDelay[l]
			return true
		}
		return false
	}
	e.meter.AddParallel(l, e.par)
	if ch.Lookup(block) {
		e.clock[c] += e.parDelay[l]
		return true
	}
	e.clock[c] += e.tagDelay[l]
	return false
}

// onL1Miss updates the recalibration clock and triggers recalibration
// when the period elapses (a global stall, Section IV).
func (e *engine) onL1Miss() {
	e.res.L1Misses++
	if e.cfg.Scheme != ReDHiP || e.cfg.RecalPeriod <= 1 {
		return
	}
	e.missesSinceRecal++
	if e.missesSinceRecal < e.cfg.RecalPeriod {
		return
	}
	e.missesSinceRecal = 0
	e.recalibrate()
}

func (e *engine) recalibrate() {
	lineNJ := e.par.PTAccessNJ
	var cycles uint64
	var nj float64
	if e.cfg.Inclusion == Exclusive {
		for c := 0; c < e.cfg.Cores; c++ {
			c2 := e.exL2[c].Recalibrate(e.l2[c], e.tagReadNJ(energy.L2), lineNJ)
			c3 := e.exL3[c].Recalibrate(e.l3[c], e.tagReadNJ(energy.L3), lineNJ)
			nj += c2.EnergyNJ + c3.EnergyNJ
			if c2.Cycles > cycles {
				cycles = c2.Cycles
			}
			if c3.Cycles > cycles {
				cycles = c3.Cycles
			}
		}
		c4 := e.exL4.Recalibrate(e.l4, e.tagReadNJ(energy.L4), lineNJ)
		nj += c4.EnergyNJ
		if c4.Cycles > cycles {
			cycles = c4.Cycles
		}
	} else {
		cost := e.ptable.Recalibrate(e.l4, e.tagReadNJ(energy.L4), lineNJ)
		cycles, nj = cost.Cycles, cost.EnergyNJ
	}
	e.res.Pred.Recalibrations++
	if e.cfg.IgnorePredictionOverhead {
		return
	}
	e.res.Pred.RecalCycles += cycles
	e.meter.AddRecal(nj)
	for c := range e.clock {
		e.clock[c] += float64(cycles)
	}
	e.schedDirty = true
}

// tagReadNJ is the energy of reading one set's tags during
// recalibration. L1/L2 fold tag+data into one figure, so their whole
// access energy stands in.
func (e *engine) tagReadNJ(l energy.Level) float64 {
	if t := e.par.Levels[l].TagNJ; t > 0 {
		return t
	}
	return e.par.Levels[l].DataNJ
}

// predictPresent asks the LLC predictor whether a block may be in the
// LLC. Callers check for predNone first; the Oracle reads the LLC.
//
//redhip:hotpath
func (e *engine) predictPresent(block memaddr.Addr) bool {
	switch e.kind {
	case predOracle:
		return e.l4.Contains(block)
	case predMirror:
		return e.mirror.PredictPresent(block)
	case predTable:
		return e.ptable.PredictPresent(block)
	case predCBF:
		return e.cbf.PredictPresent(block)
	}
	return true
}

// consultLLC asks the LLC predictor about a block after an L1 miss,
// charging the lookup and scoring it against ground truth. It returns
// true when the walk below L1 can be skipped.
//
//redhip:hotpath
func (e *engine) consultLLC(c int, block memaddr.Addr) (skip bool) {
	if e.kind == predNone || !e.adaptOn {
		return false
	}
	e.clock[c] += e.predDelay
	e.meter.AddPT(e.predNJ)
	present := e.predictPresent(block)
	e.scorePrediction(present, e.l4.Contains(block), block)
	return !present
}

// markUseful scores a demand hit on a previously prefetched block.
func (e *engine) markUseful(block memaddr.Addr) {
	if e.prefetched.live != 0 && e.prefetched.hit(block) {
		e.res.Prefetch.Useful++
	}
}

// train feeds the prefetcher after a demand L1 miss at pc and the
// core's (offset) addr, and issues the resulting prefetches
// asynchronously (no demand-path delay).
func (e *engine) train(c int, pc, addr memaddr.Addr) {
	if e.pf == nil {
		return
	}
	e.pfBuf = e.pf[c].Observe(pc, addr, e.pfBuf[:0])
	for _, block := range e.pfBuf {
		e.issuePrefetch(c, block)
	}
}

// fetchMemory charges one demand main-memory fetch. The paper models
// memory as a 0-delay, 0-energy data store (Section IV) — the default —
// but Config.MemoryLatencyCycles lets users model real DRAM latency,
// which dilutes the relative latency benefit of skipping on-chip
// lookups while leaving the energy story untouched.
func (e *engine) fetchMemory(c int) {
	e.res.MemoryFetches++
	e.clock[c] += e.memLatency
}

// fetchMemoryAsync counts a prefetch-initiated fetch; its latency is
// hidden by design (that is what prefetching is for).
func (e *engine) fetchMemoryAsync() {
	e.res.MemoryFetches++
}

// resetMeasurement starts the measurement window after warmup: all
// counters, meters and clocks restart at zero while the trained state
// (cache contents, prediction table bits, prefetcher tables, adaptive
// decision, recalibration phase) carries over.
func (e *engine) resetMeasurement() {
	for c := 0; c < e.cfg.Cores; c++ {
		e.l1[c].ResetStats()
		e.l2[c].ResetStats()
		e.l3[c].ResetStats()
		e.clock[c] = 0
	}
	e.l4.ResetStats()
	if e.pf != nil {
		for _, p := range e.pf {
			p.ResetStats()
		}
	}
	e.meter = energy.Meter{}
	e.res.Refs = 0
	e.res.L1Misses = 0
	e.res.MemoryFetches = 0
	e.res.Pred = PredStats{}
	e.res.Prefetch = PrefetchStats{}
	e.res.Adaptive = AdaptiveStats{}
}

// collect aggregates the per-cache statistics into the result.
func (e *engine) collect() {
	sum := func(cs []*cache.Cache) cache.Stats {
		var t cache.Stats
		for _, c := range cs {
			s := c.Stats()
			t.Lookups += s.Lookups
			t.Hits += s.Hits
			t.Misses += s.Misses
			t.Fills += s.Fills
			t.Evictions += s.Evictions
			t.Invalidates += s.Invalidates
		}
		return t
	}
	e.res.Levels[energy.L1] = sum(e.l1)
	e.res.Levels[energy.L2] = sum(e.l2)
	e.res.Levels[energy.L3] = sum(e.l3)
	e.res.Levels[energy.L4] = e.l4.Stats()
	e.res.CoreCycles = make([]uint64, len(e.clock))
	var max float64
	for c, f := range e.clock {
		e.res.CoreCycles[c] = uint64(f)
		if f > max {
			max = f
		}
	}
	e.res.Cycles = uint64(max)
	e.res.Dynamic = e.meter
	e.res.LeakageNJ = energy.LeakageNJ(e.par, e.cfg.Cores, e.res.Cycles)
	if e.pf != nil {
		for _, p := range e.pf {
			e.res.Prefetch.Issued += p.Stats().Issued
		}
	}
}

// Adaptive-disable policy constants (Section IV's sketch): prediction
// is turned off for the next epoch when the finished epoch's L1 miss
// rate falls below adaptMissFloor or — while prediction was on — the
// fraction of L1 misses it skipped falls below adaptSkipFloor. After
// adaptProbeEvery disabled epochs the predictor is re-enabled for one
// probe epoch so phase changes are noticed.
const (
	adaptMissFloor  = 0.02
	adaptSkipFloor  = 0.05
	adaptProbeEvery = 4
	defaultEpoch    = 16384
)

// epochTick advances the adaptive monitoring window by one reference
// and re-evaluates the enable decision at epoch boundaries.
func (e *engine) epochTick() {
	e.epochRefs++
	epoch := e.cfg.AdaptiveEpochRefs
	if epoch == 0 {
		epoch = defaultEpoch
	}
	if e.epochRefs < epoch {
		return
	}
	misses := e.res.L1Misses - e.epochStartMiss
	skips := e.res.Pred.TrueNegative - e.epochStartTN
	missRate := float64(misses) / float64(e.epochRefs)
	e.res.Adaptive.Epochs++
	wasOn := e.adaptOn
	switch {
	case !wasOn:
		e.adaptStreak++
		if e.adaptStreak >= adaptProbeEvery {
			e.adaptOn = true // probe epoch
			e.adaptStreak = 0
		}
	case missRate < adaptMissFloor:
		e.adaptOn = false
	case misses > 0 && float64(skips)/float64(misses) < adaptSkipFloor:
		e.adaptOn = false
	}
	if !e.adaptOn {
		e.res.Adaptive.DisabledEpochs++
	}
	e.epochRefs = 0
	e.epochStartMiss = e.res.L1Misses
	e.epochStartTN = e.res.Pred.TrueNegative
}
