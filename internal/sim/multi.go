package sim

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"redhip/internal/simstate"
	"redhip/internal/trace"
	"redhip/internal/workload"
)

// MultiOptions tune a RunMulti pass without affecting its results:
// every knob here changes wall time and goroutine count only. The
// simulated outcome is pinned by the golden fingerprint suite to be
// bit-identical to sequential per-scheme Run calls at any parallelism.
type MultiOptions struct {
	// Parallelism bounds the worker goroutines that run per-scheme
	// engines (0 = GOMAXPROCS). It is clamped to the number of engines
	// built. With one worker, or a worker per engine, each engine runs
	// to completion on one worker; with more engines than workers, the
	// workers take the engines in turns of a few dozen thousand
	// references each, so every worker stays busy until the last
	// engine finishes.
	Parallelism int
	// Interrupt, when non-nil, is polled by every engine once per
	// refill block (batchRefs references of one core); a non-nil error
	// aborts the pass (no results). Engines run on worker goroutines,
	// so the poll may run concurrently and must be safe for concurrent
	// use, as ctx.Err is. The experiment runner feeds its context's Err
	// here so serve job timeouts cut long passes short within a block
	// instead of waiting out the full pass.
	Interrupt func() error
	// Snapshots, when non-nil, replays each scheme's measure phase from
	// a warm-state blob (Snapshots[i] pairs with schemes[i]) instead of
	// simulating the warmup: the sources are re-seated at the boundary,
	// the engines read measure records only, and each engine is
	// restored before its first reference. Results are bit-identical to
	// the straight-through pass. Unusable blobs fail their slot with an
	// ErrSnapshot-wrapped error so callers can fall back to a cold pass.
	Snapshots [][]byte
	// SnapshotSink, when non-nil on a cold pass with a warmup window,
	// receives each scheme's warm-state blob as its engine crosses the
	// warmup/measure boundary. The callback runs on worker
	// goroutines and may fire concurrently for different schemes; it
	// must be safe for concurrent use.
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

// RunMulti simulates one trace pass under every requested scheme: one
// engine per scheme (hierarchy state, predictor state, energy
// accounting), each reading its own cursor over the same per-core
// reference streams, run on a fixed worker pool. Results are returned
// in schemes order and are bit-identical to len(schemes) independent
// Run calls over equivalent sources — the schemes share trace
// records, never hierarchy state.
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
	bytesBefore, objectsBefore := heapAllocs()
	engines, errs, built, err := buildPass(cfg, schemes, sources, &opt)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(schemes))
	if built == 0 {
		return out, errors.Join(errs...)
	}

	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	drive(engines, built, min(workers, built))
	for _, e := range engines {
		if e != nil && e.halt != nil {
			return nil, e.halt
		}
	}

	bytesAfter, objectsAfter := heapAllocs()

	// Deterministic reduction: results are assembled in schemes order,
	// each from its own engine's independently accumulated state, so
	// the worker count cannot reorder anything. The process-wide
	// allocation counters are split evenly across the pass.
	n := uint64(built)
	allocShare := (bytesAfter - bytesBefore) / n
	mallocShare := (objectsAfter - objectsBefore) / n
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
		e.res.Perf = PerfStats{
			WallNanos:     e.runNanos + e.restoreNanos,
			GenerateNanos: e.genNanos,
			SimulateNanos: e.runNanos - e.genNanos,
			RestoreNanos:  e.restoreNanos,
			AllocBytes:    allocShare,
			Mallocs:       mallocShare,
		}
		if len(schemes) == 1 {
			// A solo pass owns the whole call: wall time runs from entry
			// to return, and build/driver overhead counts as simulate.
			wall := time.Since(start).Nanoseconds() //redhip:allow wallclock -- Perf wall-time reporting
			e.res.Perf.WallNanos = wall
			e.res.Perf.SimulateNanos = wall - e.genNanos - e.restoreNanos
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

// heapAllocs reads the process's cumulative heap allocation counters:
// bytes, and objects counted as runtime.MemStats.Mallocs counts them
// (tiny objects included). runtime/metrics serves them without
// stopping the world, unlike runtime.ReadMemStats, so a pass that
// reads them does not halt the passes running beside it. The runtime
// folds each P's allocations into them when it refills a span, so they
// lag by at most a span per size class and P.
func heapAllocs() (bytes, objects uint64) {
	s := [3]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64() + s[2].Value.Uint64()
}

// buildPass validates a pass and builds its engines: one per scheme,
// restored from its snapshot when opt.Snapshots is set, armed for
// snapshot capture when opt.SnapshotSink is, and attached to the
// pass's cursors. A slot that fails to build leaves a nil engine and
// its error in errs; err fails the whole pass.
func buildPass(cfg Config, schemes []Scheme, sources []workload.Source, opt *MultiOptions) (engines []*engine, errs []error, built int, err error) {
	if len(schemes) == 0 {
		return nil, nil, 0, fmt.Errorf("sim: RunMulti needs at least one scheme")
	}
	// The shared checks (geometry, energy, windows) gate the whole pass;
	// newMultiEngine repeats them per slot with the slot's scheme, so one
	// invalid scheme/policy combination fails only its own slot.
	shared := cfg.WithScheme(Base)
	if err := shared.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if len(sources) != cfg.Cores {
		return nil, nil, 0, fmt.Errorf("sim: %d sources for %d cores", len(sources), cfg.Cores)
	}

	// Restored mode: decode and cross-check the per-scheme warm blobs,
	// re-seat the shared sources at the warmup/measure boundary, and
	// strip the warmup window from the pass.
	snaps, err := decodeMultiSnapshots(&cfg, schemes, sources, opt)
	if err != nil {
		return nil, nil, 0, err
	}
	runCfg := cfg
	if snaps != nil {
		runCfg.WarmupRefsPerCore = 0
	}

	engines = make([]*engine, len(schemes))
	errs = make([]error, len(schemes))
	for i, sc := range schemes {
		e, err := newMultiEngine(runCfg.WithScheme(sc), sources, opt.Interrupt)
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
	armSnapshotCapture(&cfg, schemes, engines, sources, snaps == nil, opt)

	// A lone engine reads the caller's sources directly, so a solo run
	// streams live generators at bounded memory. Wider passes give each
	// engine forked cursors over one replay per core, materialising
	// live sources once first.
	feed := sources
	if built > 1 {
		feed = replayFeed(sources, runCfg.WarmupRefsPerCore+runCfg.RefsPerCore)
	}
	for _, e := range engines {
		if e != nil {
			e.attach(feed, built > 1)
		}
	}
	return engines, errs, built, nil
}

// sliceRefills is the refills an engine makes per turn on a worker
// when a pass time-slices: 16 blocks, about 64k references.
const sliceRefills = 16

// drive runs a pass's built engines (nil slots skipped) on workers
// goroutines. With more than one worker but fewer workers than engines,
// the pass time-slices: each turn runs an engine for sliceRefills
// refills, and a worker that stops an unfinished engine requeues it at
// the back of the FIFO and takes the next, so no worker idles while an
// engine has work left. Otherwise each engine runs to completion on
// one worker. Engines share nothing mutable, so the interleaving
// changes wall time only.
func drive(engines []*engine, built, workers int) {
	quota := unsliced
	if 1 < workers && workers < built {
		quota = sliceRefills
	}
	// The queue holds every engine at once, so a requeue never blocks;
	// the worker that finishes the last engine closes it.
	work := make(chan *engine, built)
	for _, e := range engines {
		if e != nil {
			work <- e
		}
	}
	var left atomic.Int64
	left.Store(int64(built))
	var done sync.WaitGroup
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer done.Done()
			for e := range work {
				t0 := time.Now() //redhip:allow wallclock -- Perf simulate-time attribution only
				finished := e.run(quota)
				//redhip:phase-exclusive one worker holds an engine per turn; the queue hand-off and done.Wait publish the write
				e.runNanos += time.Since(t0).Nanoseconds() //redhip:allow wallclock -- Perf simulate-time attribution only
				if !finished {
					work <- e
				} else if left.Add(-1) == 0 {
					close(work)
				}
			}
		}()
	}
	done.Wait()
}

// replayFeed returns one trace replay per core for a pass's engines
// to fork: the caller's own replays as they stand, and live sources
// materialised once for refs records from their current position.
func replayFeed(sources []workload.Source, refs uint64) []workload.Source {
	out := make([]workload.Source, len(sources))
	for c, s := range sources {
		if _, ok := s.(*workload.TraceSource); ok {
			out[c] = s
		} else {
			out[c] = workload.FromTrace(workload.Capture(s, int(refs)))
		}
	}
	return out
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
	replays := make([]*workload.TraceSource, len(sources))
	for i, s := range sources {
		r, ok := s.(*workload.TraceSource)
		if !ok {
			return nil, fmt.Errorf("%w: source %d (%T) is not a trace replay", ErrSnapshot, i, s)
		}
		replays[i] = r
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
	for _, r := range replays {
		if err := r.Seek(cfg.WarmupRefsPerCore); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
	}
	return snaps, nil
}

// armSnapshotCapture installs per-engine warm-state capture hooks on a
// cold pass with a warmup window when the caller asked for them.
// The hooks fire inside worker goroutines as each engine crosses its
// boundary; opt.SnapshotSink's concurrency contract covers that.
func armSnapshotCapture(cfg *Config, schemes []Scheme, engines []*engine, sources []workload.Source, cold bool, opt *MultiOptions) {
	if !cold || opt.SnapshotSink == nil || cfg.WarmupRefsPerCore == 0 {
		return
	}
	for i, e := range engines {
		if e == nil {
			continue
		}
		sc := schemes[i]
		scfg := cfg.WithScheme(sc)
		meta := warmMeta(&scfg, sources[0].Name(), opt.SnapshotSeed)
		ee := e
		e.snapSink = func() {
			snap := ee.captureSnapshot()
			snap.Meta = meta
			opt.SnapshotSink(sc, simstate.Encode(snap))
		}
	}
}

// newMultiEngine validates cfg and builds one scheme's engine over the
// pass's per-core sources; attach gives it its read cursors.
func newMultiEngine(cfg Config, sources []workload.Source, interrupt func() error) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		cfg: &cfg,
		par: &cfg.Energy,
		res: &Result{
			Workload:  sources[0].Name(),
			Scheme:    cfg.Scheme,
			Inclusion: cfg.Inclusion,
		},
		interrupt: interrupt,
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	for c, s := range sources {
		e.cpi[c] = s.CPI()
	}
	return e, nil
}

// attach sets the engine's per-core read cursors: trace replays (forked
// when several engines share them) serve zero-copy windows of their
// unshifted records, with the cursor's offset kept in off, and any
// other source bulk-generates shifted records into an engine-owned
// buffer.
func (e *engine) attach(sources []workload.Source, fork bool) {
	e.replay = make([]*workload.TraceSource, len(sources))
	e.batch = make([]workload.BatchSource, len(sources))
	e.buf = make([][]trace.Record, len(sources))
	for c, s := range sources {
		if r, ok := s.(*workload.TraceSource); ok {
			if fork {
				r = r.Fork()
			}
			e.replay[c], e.off[c] = r, r.Offset()
			continue
		}
		e.batch[c] = workload.AsBatch(s)
		e.buf[c] = make([]trace.Record, batchRefs)
	}
}
