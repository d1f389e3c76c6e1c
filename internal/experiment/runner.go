// Package experiment defines one reproducible experiment per table and
// figure in the paper's evaluation (Section V) and a runner that
// executes the underlying simulations — in parallel across a worker
// pool, with memoisation so the many figures that share runs (e.g. the
// per-workload Base runs every normalisation needs) execute them once.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"redhip/internal/faultinject"
	"redhip/internal/sim"
	"redhip/internal/simstate"
	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// jobKey identifies one memoised simulation: the workload name plus the
// full configuration, compared field-by-field. Using the struct itself
// as the map key replaces the old fmt.Sprintf("%s|%+v", ...) string
// keys — no formatting on every cache probe, and no risk of two
// configs colliding because they happen to print alike.
type jobKey struct {
	workload string
	cfg      sim.Config
}

// Compile-time guard: jobKey must stay comparable (adding a slice, map
// or function field to sim.Config would break it and this line).
var _ = map[jobKey]bool{}

// Options configure a Runner.
type Options struct {
	// Base is the starting configuration every experiment derives its
	// variants from. Defaults to sim.Scaled().
	Base sim.Config
	// Seed feeds the workload generators.
	Seed uint64
	// Workloads to evaluate; defaults to the paper's eleven.
	Workloads []string
	// Parallelism bounds concurrent simulations. Zero means "one per
	// available CPU" (runtime.GOMAXPROCS(0)); negative values are a
	// configuration error NewRunner rejects.
	Parallelism int
	// OnRun, when non-nil, receives a structured notification after
	// every executed (non-memoised) run and every run filed through
	// Adopt: redhip-bench -v prints it, redhip-serve streams it over
	// SSE. The hook may be called concurrently from worker goroutines
	// and must treat the Result as read-only.
	OnRun func(RunUpdate)
	// Context, when non-nil, cancels in-flight work: once it is done,
	// workers stop picking up pending jobs, a running pass stops within
	// its current refill block (sim.MultiOptions.Interrupt), and run
	// methods return the context's error.
	Context context.Context
	// TraceCache, when non-nil, is a caller-owned store shared with
	// other runners (a session sweeping many figures keeps one store
	// across runner instances so each stream materialises once per
	// session, not once per runner). Nil gives the runner its own store
	// with the default budget (tracestore.DefaultBudgetBytes).
	TraceCache *tracestore.Store
	// Fault, when non-nil and the build carries the faultinject tag,
	// evaluates the "experiment.run" injection point before every
	// executed run — per-run error, panic and latency injection. Nil
	// falls back to the process-wide injector (faultinject.Active). In
	// builds without the tag the field is inert.
	Fault *faultinject.Injector
	// IntraParallelism bounds the worker goroutines inside one
	// simulation pass (sim.RunMultiOpt runs one per-scheme engine per
	// worker), whether a multi-scheme sweep or a one-scheme pool job. Zero means "auto": divide GOMAXPROCS by the
	// job-level Parallelism so the two layers combined never
	// oversubscribe the machine (see intraWorkers). Negative values are
	// a configuration error. Results are unaffected either way — the
	// knob trades goroutines for wall time only.
	IntraParallelism int
	// SnapshotCache, when non-nil, is a caller-owned warm-state snapshot
	// store shared with other runners: jobs with a warmup window warm
	// once per (geometry, workload, seed, warmup, scheme) lineage and
	// branch their measure phases from the cached blob
	// (sim.MultiOptions SnapshotSink/Snapshots — bit-identical to cold
	// runs by the golden contract). Nil leaves snapshotting off: warm
	// blobs cost memory, so reuse is opt-in.
	SnapshotCache *simstate.Store
}

// Validate rejects option values that fill cannot repair. A negative
// Parallelism used to silently run with NumCPU workers; now it is an
// explicit error, and only zero means "pick a default".
func (o *Options) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("experiment: Parallelism must be >= 0 (0 = one worker per CPU), got %d", o.Parallelism)
	}
	if o.IntraParallelism < 0 {
		return fmt.Errorf("experiment: IntraParallelism must be >= 0 (0 = auto), got %d", o.IntraParallelism)
	}
	return nil
}

// intraWorkers resolves the worker count of one simulation pass so
// the two parallelism layers compose without oversubscribing:
// jobWorkers pool goroutines may each drive a pass of this many
// workers, and the product never exceeds procs
// (GOMAXPROCS). requested = 0 means auto (procs / jobWorkers); an
// explicit request is honoured up to the same cap. Floor 1: a machine
// smaller than the job pool still makes progress, it just timeshares.
func intraWorkers(requested, jobWorkers, procs int) int {
	if jobWorkers < 1 {
		jobWorkers = 1
	}
	cap := procs / jobWorkers
	if cap < 1 {
		cap = 1
	}
	n := requested
	if n <= 0 || n > cap {
		n = cap
	}
	return n
}

func (o *Options) fill() {
	if o.Base.Cores == 0 {
		o.Base = sim.Scaled()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.BenchmarkNames()
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
}

// RunUpdate describes one completed simulation run, delivered through
// Options.OnRun.
type RunUpdate struct {
	Workload  string
	Scheme    sim.Scheme
	Inclusion sim.InclusionPolicy
	// Result is the run's output (nil when Err is set). It is shared
	// with the runner's memo cache; callers must not mutate it.
	Result *sim.Result
	Err    error
	// Reused is true for a run filed through Adopt instead of executed.
	Reused bool
	// Completed counts runs this runner has executed or adopted so far
	// (memoised cache hits do not re-fire the hook and are not counted).
	Completed int
}

// Runner executes and memoises simulation runs.
type Runner struct {
	opts   Options
	traces *tracestore.Store
	snaps  *simstate.Store // nil unless snapshot branching is enabled

	mu    sync.Mutex
	cache map[jobKey]*sim.Result
	errs  map[jobKey]error
}

// NewRunner builds a runner, or fails on invalid options.
func NewRunner(opts Options) (*Runner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	r := &Runner{
		opts:   opts,
		traces: opts.TraceCache,
		snaps:  opts.SnapshotCache,
		cache:  make(map[jobKey]*sim.Result),
		errs:   make(map[jobKey]error),
	}
	if r.traces == nil {
		r.traces = tracestore.New(0)
	}
	return r, nil
}

// Workloads returns the evaluated workload names.
func (r *Runner) Workloads() []string { return r.opts.Workloads }

// BaseConfig returns a copy of the base configuration.
func (r *Runner) BaseConfig() sim.Config { return r.opts.Base }

// job is one (workload, config) simulation.
type job struct {
	workload string
	cfg      sim.Config
}

func (j job) key() jobKey {
	return jobKey{workload: j.workload, cfg: j.cfg}
}

// results runs jobs through the pool and returns their results in
// input order, or the first failed job's error.
func (r *Runner) results(jobs []job) ([]*sim.Result, error) {
	if err := r.run(jobs); err != nil {
		return nil, err
	}
	return r.cached(jobs), nil
}

// cached returns the memoised results of jobs in input order.
func (r *Runner) cached(jobs []job) []*sim.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*sim.Result, len(jobs))
	for i, j := range jobs {
		out[i] = r.cache[j.key()]
	}
	return out
}

// run executes all not-yet-cached jobs on a fixed pool of worker
// goroutines: jobs flow through a channel to min(Parallelism, pending)
// workers instead of spawning one goroutine per job behind a
// semaphore, so a figure that wants hundreds of runs starts exactly as
// many goroutines as can make progress.
func (r *Runner) run(jobs []job) error {
	pending := r.pending(jobs)
	if len(pending) == 0 {
		return r.firstError(jobs)
	}

	workers := r.opts.Parallelism
	if workers > len(pending) {
		workers = len(pending)
	}
	ctx := r.opts.Context
	work := make(chan job)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range work {
				// Drain without executing once the context is done, so
				// the feeder below never blocks on a dead pool.
				if ctx.Err() != nil {
					continue
				}
				r.runOne(j)
			}
		}()
	}
	for _, j := range pending {
		work <- j
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.firstError(jobs)
}

// PanicError is a panic recovered from a simulation run, converted to
// an ordinary error so one corrupted run fails its job instead of
// killing the worker pool (or, unrecovered in a pool goroutine, the
// whole process). Stack is captured at the panic site; redhip-serve
// appends it to the failing job's event log.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("experiment: run panicked: %v", e.Value)
}

// runOne executes a single pool job — a one-scheme pass — and records
// its outcome.
func (r *Runner) runOne(j job) {
	results, err := r.executePass(j.workload, j.cfg, []sim.Scheme{j.cfg.Scheme})
	_ = r.record(j.workload, []job{j}, results, err) // run reports a cancelled context itself
}

// pending returns the jobs not yet memoised (as a result or an error),
// deduplicated, in input order.
func (r *Runner) pending(jobs []job) []job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]job, 0, len(jobs))
	seen := make(map[jobKey]bool, len(jobs))
	for _, j := range jobs {
		k := j.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := r.cache[k]; ok {
			continue
		}
		if _, ok := r.errs[k]; ok {
			continue
		}
		out = append(out, j)
	}
	return out
}

// record files one pass's per-scheme outcomes: memo cache entries,
// then OnRun notifications in jobs order. A pass-level failure (nil
// results) fails every job with the same cause — unless the context is
// done, in which case nothing is recorded (the jobs stay runnable) and
// the context's error is returned.
func (r *Runner) record(workloadName string, jobs []job, results []*sim.Result, err error) error {
	if results == nil {
		if cerr := r.opts.Context.Err(); cerr != nil {
			return cerr
		}
		results = make([]*sim.Result, len(jobs))
	}
	for i, j := range jobs {
		res := results[i]
		var runErr error
		if res != nil {
			// Reports label rows by workload name; mix's first source is
			// a SPEC benchmark, so fix the label up here.
			res.Workload = workloadName
		} else {
			runErr = fmt.Errorf("%s/%s: %w", workloadName, j.cfg.Scheme, err)
		}
		r.mu.Lock()
		if runErr != nil {
			r.errs[j.key()] = runErr
		} else {
			r.cache[j.key()] = res
		}
		completed := len(r.cache) + len(r.errs)
		r.mu.Unlock()
		if r.opts.OnRun != nil {
			r.opts.OnRun(RunUpdate{
				Workload:  workloadName,
				Scheme:    j.cfg.Scheme,
				Inclusion: j.cfg.Inclusion,
				Result:    res,
				Err:       runErr,
				Completed: completed,
			})
		}
	}
	return nil
}

// firstError returns the error of the first failed job, ordering
// deterministically by (workload, scheme, inclusion) and then by input
// position, regardless of which worker finished first.
func (r *Runner) firstError(jobs []job) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ordered := make([]job, len(jobs))
	copy(ordered, jobs)
	sort.SliceStable(ordered, func(a, b int) bool {
		ja, jb := ordered[a], ordered[b]
		if ja.workload != jb.workload {
			return ja.workload < jb.workload
		}
		if ja.cfg.Scheme != jb.cfg.Scheme {
			return ja.cfg.Scheme < jb.cfg.Scheme
		}
		return ja.cfg.Inclusion < jb.cfg.Inclusion
	})
	for _, j := range ordered {
		if err := r.errs[j.key()]; err != nil {
			return err
		}
	}
	return nil
}

// buildSources returns fresh per-core replay cursors over the
// workload's materialised reference stream — generated once per
// (workload, cores, scale, seed, refs) key and shared read-only across
// every scheme and inclusion variant that needs it.
func (r *Runner) buildSources(workloadName string, cfg sim.Config) ([]workload.Source, error) {
	mat, err := r.traces.Get(tracestore.Key{
		Workload:    workloadName,
		Cores:       cfg.Cores,
		Scale:       cfg.WorkloadScale,
		Seed:        r.opts.Seed,
		RefsPerCore: cfg.WarmupRefsPerCore + cfg.RefsPerCore,
	})
	if err != nil {
		return nil, err
	}
	return mat.Sources(), nil
}

// Adopt files res, a finished run of workloadName under the base
// configuration with res.Scheme, in the memo cache, so a later
// SchemeSweep serves that scheme without simulating it and leaves it
// out of its pass. The caller vouches that res comes from the same
// workload, seed and full configuration; the simulation is
// deterministic, so such a run is bit-identical to one this runner
// would execute. res is shared, not copied, and must be treated as
// read-only. OnRun fires with Reused set; a run already memoised is
// left as it is.
func (r *Runner) Adopt(workloadName string, res *sim.Result) {
	k := jobKey{workload: workloadName, cfg: r.opts.Base.WithScheme(res.Scheme)}
	r.mu.Lock()
	if _, ok := r.cache[k]; ok {
		r.mu.Unlock()
		return
	}
	r.cache[k] = res
	completed := len(r.cache) + len(r.errs)
	r.mu.Unlock()
	if r.opts.OnRun != nil {
		r.opts.OnRun(RunUpdate{
			Workload:  workloadName,
			Scheme:    res.Scheme,
			Inclusion: res.Inclusion,
			Result:    res,
			Reused:    true,
			Completed: completed,
		})
	}
}

// SchemeSweep simulates one workload under each scheme at the base
// configuration, returning results in scheme order. All schemes ride
// one single-pass simulation (sim.RunMulti): every scheme's engine
// replays the same materialised reference stream through its own
// cursor, bit-identical to independent runs. Already-cached schemes
// are excluded from the pass and served from the memo cache.
func (r *Runner) SchemeSweep(workloadName string, schemes []sim.Scheme) ([]*sim.Result, error) {
	jobs := make([]job, len(schemes))
	for i, sc := range schemes {
		cfg := r.opts.Base
		cfg.Scheme = sc
		jobs[i] = job{workload: workloadName, cfg: cfg}
	}
	if err := r.runMultiPass(workloadName, jobs); err != nil {
		return nil, err
	}
	return r.cached(jobs), nil
}

// runMultiPass executes the not-yet-cached jobs of one scheme sweep as
// a single pass and records per-scheme outcomes exactly like the job
// pool does. Jobs must differ only in Scheme (SchemeSweep guarantees
// this).
func (r *Runner) runMultiPass(workloadName string, jobs []job) error {
	pending := r.pending(jobs)
	if len(pending) == 0 {
		return r.firstError(jobs)
	}
	if err := r.opts.Context.Err(); err != nil {
		return err
	}
	schemes := make([]sim.Scheme, len(pending))
	for i, j := range pending {
		schemes[i] = j.cfg.Scheme
	}
	results, err := r.executePass(workloadName, pending[0].cfg, schemes)
	if err := r.record(workloadName, pending, results, err); err != nil {
		return err
	}
	return r.firstError(jobs)
}

// executePass runs one sim.RunMultiOpt pass over schemes — a pool job
// is a pass of one — behind the runner's panic isolation and fault
// seam: the injection point fires once per pass, and a panic (injected
// or organic) fails the whole pass as a *PanicError instead of killing
// the worker goroutine or, unrecovered, the process. The faultinject
// seam sits inside the recover scope so injected panics exercise
// exactly this path.
func (r *Runner) executePass(workloadName string, base sim.Config, schemes []sim.Scheme) (results []*sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			results, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if faultinject.Enabled {
		in := r.opts.Fault
		if in == nil {
			in = faultinject.Active()
		}
		if ferr := in.Point(faultinject.PointExperimentRun); ferr != nil {
			return nil, ferr
		}
	}
	srcs, err := r.buildSources(workloadName, base)
	if err != nil {
		return nil, err
	}
	ctx := r.opts.Context
	opt := sim.MultiOptions{
		Parallelism: intraWorkers(r.opts.IntraParallelism, r.opts.Parallelism, runtime.GOMAXPROCS(0)),
		Interrupt:   func() error { return ctx.Err() },
	}
	if r.snaps == nil || base.WarmupRefsPerCore == 0 {
		return sim.RunMultiOpt(base, schemes, srcs, opt)
	}

	// Snapshot branching: when every scheme's warm blob is cached the
	// pass restores all engines at the boundary and skips the warmup
	// walk; otherwise a cold pass runs with a sink that captures each
	// scheme's warm state for future passes. sim.ErrSnapshot from the
	// restored pass degrades to the cold path over fresh sources. The
	// warm key names the requested workload, not the first source: mix
	// runs bwaves on core 0, and must not share bwaves' warm state.
	seed := r.opts.Seed
	keys := make([]simstate.Key, len(schemes))
	blobs := make([][]byte, len(schemes))
	allHit := true
	for i, sc := range schemes {
		keys[i] = simstate.Key(sim.WarmKey(base.WithScheme(sc), workloadName, seed))
		b, ok := r.snaps.Get(keys[i])
		if !ok {
			allHit = false
		}
		blobs[i] = b
	}
	opt.SnapshotSeed = seed
	if allHit {
		ropt := opt
		ropt.Snapshots = blobs
		results, rerr := sim.RunMultiOpt(base, schemes, srcs, ropt)
		if rerr == nil {
			for _, res := range results {
				r.snaps.RecordRestore(res.Perf.RestoreNanos)
			}
			return results, nil
		}
		if !errors.Is(rerr, sim.ErrSnapshot) {
			return nil, rerr
		}
		// A rejected blob may have partially re-seated the replay
		// cursors — rebuild sources before falling back cold.
		srcs, err = r.buildSources(workloadName, base)
		if err != nil {
			return nil, err
		}
	}
	opt.SnapshotSink = func(sc sim.Scheme, blob []byte) {
		for i, s := range schemes {
			if s == sc {
				r.snaps.Put(keys[i], blob)
			}
		}
	}
	return sim.RunMultiOpt(base, schemes, srcs, opt)
}

// SnapshotStats snapshots the warm-state store's counters; ok is false
// when snapshot branching is disabled.
func (r *Runner) SnapshotStats() (st simstate.StoreStats, ok bool) {
	if r.snaps == nil {
		return simstate.StoreStats{}, false
	}
	return r.snaps.Stats(), true
}

// TraceCacheStats snapshots the trace store's counters.
func (r *Runner) TraceCacheStats() tracestore.Stats {
	return r.traces.Stats()
}

// CacheSize reports how many runs are memoised (for tests/diagnostics).
func (r *Runner) CacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}
