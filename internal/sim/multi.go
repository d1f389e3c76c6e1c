package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"redhip/internal/simstate"
	"redhip/internal/workload"
)

// MultiOptions tune a RunMulti pass without affecting its results:
// every knob here changes wall time and goroutine count only. The
// simulated outcome is pinned by the golden fingerprint suite to be
// bit-identical to sequential per-scheme Run calls at any parallelism.
type MultiOptions struct {
	// Parallelism bounds the worker goroutines that advance per-scheme
	// back halves (0 = GOMAXPROCS). It is clamped to the scheme count;
	// when it exceeds the scheme count the surplus is granted to the
	// engines as set-partitioned recalibration fan-out instead.
	Parallelism int
	// Interrupt, when non-nil, is polled between rounds; a non-nil
	// error aborts the pass (no results). The experiment runner feeds
	// its context's Err here so serve job timeouts cut long passes
	// short at the next barrier instead of waiting out the full pass.
	Interrupt func() error
	// Snapshots, when non-nil, replays each scheme's measure phase from
	// a warm-state blob (Snapshots[i] pairs with schemes[i]) instead of
	// simulating the warmup: the sources are re-seated at the boundary,
	// the front generates measure blocks only, and each back half is
	// restored before its first reference. Results are bit-identical to
	// the straight-through pass. Unusable blobs fail their slot with an
	// ErrSnapshot-wrapped error so callers can fall back to a cold pass.
	Snapshots [][]byte
	// SnapshotSink, when non-nil on a cold pass with a warmup window,
	// receives each scheme's warm-state blob as its back half crosses
	// the warmup/measure boundary. The callback runs on worker
	// goroutines and may fire concurrently for different schemes; it
	// must be safe for concurrent use. Capture, like restore, requires
	// every source to implement workload.StateSource (trace replays do;
	// live generators cannot state their cursor at an un-simulated
	// offset), otherwise the pass runs normally and the sink never fires.
	SnapshotSink func(scheme Scheme, blob []byte)
	// SnapshotSeed labels captured blobs and validates restored ones:
	// it must be the seed the sources were built with (sim.WarmKey).
	SnapshotSeed uint64
}

// Run simulates the configured hierarchy over the per-core sources and
// returns the collected result. sources must have exactly cfg.Cores
// entries. Run is deterministic: the same config and sources produce
// bit-identical results. It is a one-slot RunMultiOpt pass.
func Run(cfg Config, sources []workload.Source) (*Result, error) {
	res, err := RunMultiOpt(cfg, []Scheme{cfg.Scheme}, sources, MultiOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunMulti simulates one trace pass under every requested scheme in
// lockstep: the shared front half decodes/generates each core's
// reference stream once, and one back half per scheme (hierarchy
// state, predictor state, energy accounting) consumes the shared
// blocks. Results are returned in schemes order and are bit-identical
// to len(schemes) independent Run calls over equivalent sources —
// per-scheme clocks mean the schemes share the trace, never hierarchy
// state, so lockstep cannot couple them.
//
// On error the returned slice still holds results for the schemes that
// completed; failed slots are nil and the error joins the per-scheme
// failures.
func RunMulti(cfg Config, schemes []Scheme, sources []workload.Source) ([]*Result, error) {
	return RunMultiOpt(cfg, schemes, sources, MultiOptions{})
}

// RunMultiOpt is RunMulti with explicit options. It is the only engine
// driver: solo, warm-capturing and restored runs are passes of width
// one.
func RunMultiOpt(cfg Config, schemes []Scheme, sources []workload.Source, opt MultiOptions) ([]*Result, error) {
	start := time.Now() //redhip:allow wallclock -- Perf wall-time reporting, not simulated time
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	if len(schemes) == 0 {
		return nil, fmt.Errorf("sim: RunMulti needs at least one scheme")
	}
	// The shared checks (geometry, energy, windows) gate the whole pass;
	// newMultiEngine repeats them per slot with the slot's scheme, so one
	// invalid scheme/policy combination fails only its own slot.
	shared := cfg.WithScheme(Base)
	if err := shared.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(sources), cfg.Cores)
	}

	// Restored mode: decode and cross-check the per-scheme warm blobs,
	// re-seat the shared sources at the warmup/measure boundary, and
	// strip the warmup window from the pass — the front then generates
	// measure blocks only.
	snaps, err := decodeMultiSnapshots(&cfg, schemes, sources, &opt)
	if err != nil {
		return nil, err
	}
	runCfg := cfg
	if snaps != nil {
		runCfg.WarmupRefsPerCore = 0
	}

	front, err := newTraceFront(&runCfg, sources)
	if err != nil {
		return nil, err
	}
	engines := make([]*engine, len(schemes))
	errs := make([]error, len(schemes))
	built := 0
	for i, sc := range schemes {
		e, err := newMultiEngine(runCfg.WithScheme(sc), front)
		if err != nil {
			// One invalid combination (e.g. CBF under Exclusive) fails
			// its own slot, like the independent per-scheme runs did.
			errs[i] = err
			continue
		}
		if snaps != nil {
			t0 := time.Now() //redhip:allow wallclock -- Perf restore-time attribution only
			if rerr := e.restoreSnapshot(snaps[i]); rerr != nil {
				errs[i] = fmt.Errorf("%w: %v", ErrSnapshot, rerr)
				continue
			}
			e.restoreNanos = time.Since(t0).Nanoseconds() //redhip:allow wallclock -- Perf restore-time attribution only
		}
		engines[i] = e
		built++
	}
	armSnapshotCapture(&cfg, schemes, engines, sources, front, snaps == nil, &opt)

	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if built > 0 && workers > built {
		// Surplus workers sweep recalibration set partitions instead of
		// idling; results stay bit-identical (RecalibrateParallel's
		// contract), so the grant only changes wall time.
		recal := workers / built
		for _, e := range engines {
			if e != nil {
				e.recalWorkers = recal
			}
		}
		workers = built
	}

	// Round-based lockstep: a single-threaded generate/retire phase
	// alternates with a parallel simulate phase over the still-active
	// engines. The barrier between phases is what makes the lock-free
	// block sharing sound — storage is written only while no engine
	// runs, and engines only read blocks the previous phase published.
	active := make([]*engine, 0, built)
	feeds := make([]*multiFeed, 0, built)
	for _, e := range engines {
		if e != nil {
			e.start()
			active = append(active, e)
			feeds = append(feeds, e.feed)
		}
	}
	work := make(chan *engine)
	var done sync.WaitGroup
	for len(active) > 0 {
		if opt.Interrupt != nil {
			if err := opt.Interrupt(); err != nil {
				return nil, err
			}
		}
		front.advance(feeds)
		spawn := workers
		if spawn > len(active) {
			spawn = len(active)
		}
		done.Add(spawn)
		for w := 0; w < spawn; w++ {
			go func() {
				defer done.Done()
				for e := range work {
					t0 := time.Now() //redhip:allow wallclock -- Perf simulate-time attribution only
					e.runChunk()
					//redhip:phase-exclusive each engine is handed to exactly one worker per round; done.Wait publishes the write
					e.simNanos += time.Since(t0).Nanoseconds() //redhip:allow wallclock -- Perf simulate-time attribution only
				}
			}()
		}
		for _, e := range active {
			work <- e
		}
		// Close-and-remake per round: the WaitGroup barrier is the
		// happens-before edge between this simulate phase and the next
		// generate phase.
		close(work)
		done.Wait()
		work = make(chan *engine)
		next := active[:0]
		nextFeeds := feeds[:0]
		for _, e := range active {
			if e.phase != phaseDone {
				next = append(next, e)
				nextFeeds = append(nextFeeds, e.feed)
			}
		}
		active, feeds = next, nextFeeds
	}

	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	// Deterministic reduction: results are assembled in schemes order,
	// each from its own engine's independently accumulated state, so
	// neither worker count nor chunk interleaving can reorder anything.
	// The shared costs (generation wall time, allocation counters) are
	// split evenly with the remainder on the first slot.
	out := make([]*Result, len(schemes))
	n := int64(built)
	if n == 0 {
		return out, errors.Join(errs...)
	}
	genShare, genRem := front.genNanos/n, front.genNanos%n
	allocShare := (memAfter.TotalAlloc - memBefore.TotalAlloc) / uint64(n)
	mallocShare := (memAfter.Mallocs - memBefore.Mallocs) / uint64(n)
	first := true
	failed := false
	for i, e := range engines {
		if e == nil {
			failed = true
			continue
		}
		if e.runErr != nil {
			errs[i] = e.runErr
			failed = true
			continue
		}
		gen := genShare
		if first {
			gen += genRem
			first = false
		}
		e.res.Perf = PerfStats{
			WallNanos:     e.simNanos + gen + e.restoreNanos,
			GenerateNanos: gen,
			SimulateNanos: e.simNanos,
			RestoreNanos:  e.restoreNanos,
			AllocBytes:    allocShare,
			Mallocs:       mallocShare,
		}
		if len(schemes) == 1 {
			// A solo pass owns the whole call: wall time runs from entry
			// to return, and build/driver overhead counts as simulate.
			wall := time.Since(start).Nanoseconds() //redhip:allow wallclock -- Perf wall-time reporting
			e.res.Perf.WallNanos = wall
			e.res.Perf.SimulateNanos = wall - gen - e.restoreNanos
		}
		if secs := float64(e.res.Perf.WallNanos) / 1e9; secs > 0 {
			e.res.Perf.RefsPerSec = float64(e.res.Refs) / secs
		}
		out[i] = e.res
	}
	if failed {
		return out, errors.Join(errs...)
	}
	return out, nil
}

// decodeMultiSnapshots validates opt.Snapshots against the pass and
// re-seats the shared sources at the warmup/measure boundary. It
// returns nil when the pass runs cold (no snapshots requested);
// failures wrap ErrSnapshot so callers can fall back to a cold pass.
func decodeMultiSnapshots(cfg *Config, schemes []Scheme, sources []workload.Source, opt *MultiOptions) ([]*simstate.Snapshot, error) {
	if len(opt.Snapshots) == 0 {
		return nil, nil
	}
	if len(opt.Snapshots) != len(schemes) {
		return nil, fmt.Errorf("%w: %d snapshots for %d schemes", ErrSnapshot, len(opt.Snapshots), len(schemes))
	}
	if cfg.WarmupRefsPerCore == 0 {
		return nil, fmt.Errorf("%w: configuration has no warmup window to restore into", ErrSnapshot)
	}
	states, err := stateSources(sources)
	if err != nil {
		return nil, err
	}
	name := sources[0].Name()
	snaps := make([]*simstate.Snapshot, len(schemes))
	for i, blob := range opt.Snapshots {
		s, err := simstate.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: scheme %s: %v", ErrSnapshot, schemes[i], err)
		}
		scfg := cfg.WithScheme(schemes[i])
		if err := validateWarmMeta(&s.Meta, &scfg, name, opt.SnapshotSeed); err != nil {
			return nil, fmt.Errorf("scheme %s: %w", schemes[i], err)
		}
		snaps[i] = s
	}
	// Every scheme consumed the same warm prefix, so the source cursors
	// must agree blob-for-blob; a divergence means the blobs are not
	// siblings of one warm lineage.
	for i := 1; i < len(snaps); i++ {
		if !sourceStatesEqual(snaps[0].Sources, snaps[i].Sources) {
			return nil, fmt.Errorf("%w: schemes %s and %s disagree on source cursors", ErrSnapshot, schemes[0], schemes[i])
		}
	}
	if len(snaps[0].Sources) != len(states) {
		return nil, fmt.Errorf("%w: snapshot has %d source cursors, want %d", ErrSnapshot, len(snaps[0].Sources), len(states))
	}
	for i, ss := range states {
		if err := ss.RestoreState(snaps[0].Sources[i]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
	}
	return snaps, nil
}

func sourceStatesEqual(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// armSnapshotCapture installs per-engine warm-state capture hooks on a
// cold pass when the caller asked for them and every source is a
// replay that can state its cursor at the warmup boundary
// (workload.StateSource — the front reads ahead of engine consumption,
// so the live cursor is useless).
// The hooks fire inside worker goroutines as each back half crosses its
// boundary; opt.SnapshotSink's concurrency contract covers that.
func armSnapshotCapture(cfg *Config, schemes []Scheme, engines []*engine, sources []workload.Source, front *traceFront, cold bool, opt *MultiOptions) {
	if !cold || opt.SnapshotSink == nil || cfg.WarmupRefsPerCore == 0 {
		return
	}
	states, err := stateSources(sources)
	if err != nil {
		return
	}
	srcState := make([][]uint64, len(states))
	for i, ss := range states {
		st, err := ss.StateAt(cfg.WarmupRefsPerCore)
		if err != nil {
			return
		}
		srcState[i] = st
	}
	for i, e := range engines {
		if e == nil {
			continue
		}
		sc := schemes[i]
		scfg := cfg.WithScheme(sc)
		meta := warmMeta(&scfg, front.name, opt.SnapshotSeed)
		ee := e
		e.snapSink = func() {
			snap := ee.captureSnapshot()
			snap.Meta = meta
			snap.Sources = srcState
			opt.SnapshotSink(sc, simstate.Encode(snap))
		}
	}
}

// newMultiEngine validates cfg and builds a back half fed from the
// shared front.
func newMultiEngine(cfg Config, front *traceFront) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		cfg: &cfg,
		par: &cfg.Energy,
		res: &Result{
			Workload:  front.name,
			Scheme:    cfg.Scheme,
			Inclusion: cfg.Inclusion,
		},
		feed: newMultiFeed(front),
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	copy(e.cpi, front.cpi)
	return e, nil
}
