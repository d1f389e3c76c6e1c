package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"redhip/internal/energy"
	"redhip/internal/experiment"
	"redhip/internal/sim"
	"redhip/internal/simstate"
	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// The two batch workloads run repeats back to back until the next one
// would overrun the window (at least two, so repeats can be compared),
// each on fresh runners and fresh stores so nothing carries over.
const (
	// figsRefsPerCore sizes the figs workload: every table and figure
	// of the evaluation at the smoke geometry.
	figsRefsPerCore = 50_000
	// sweepRefsPerCore is both the warmup and the measure window of the
	// sweep workload, per core, at the scaled geometry.
	sweepRefsPerCore = 50_000
)

// sweepWorkloads are the sweep workload's four paper workloads: two
// memory-bound, one mixed, and the multiprogrammed mix.
var sweepWorkloads = []string{"mcf", "lbm", "soplex", "mix"}

// repeatsDone reports whether a batch workload should stop: it has two
// repeats and another one of median length would end past the window.
func repeatsDone(start time.Time, window time.Duration, walls []float64) bool {
	if len(walls) < 2 {
		return false
	}
	next := time.Duration(median(walls) * float64(time.Millisecond))
	return time.Since(start)+next > window
}

// simTotals sums what a set of sim.Results report about the simulator
// (Perf, host time) and about the modelled hardware (exact counts).
type simTotals struct {
	runs                             int
	refs                             uint64
	simNs, genNs, restoreNs          int64
	restores                         int
	allocBytes, memFetches           uint64
	l1Lookups, l1Misses, lowerLookup uint64
	l4Lookups, l4Hits                uint64
	predLookups, skips, fps, fns     uint64
	recals, pfIssued                 uint64
}

// merge adds another repeat's host-time totals (the exact counts are
// read from one repeat, since every repeat must reproduce them).
func (t *simTotals) merge(o simTotals) {
	t.runs += o.runs
	t.refs += o.refs
	t.simNs += o.simNs
	t.genNs += o.genNs
	t.restoreNs += o.restoreNs
	t.restores += o.restores
	t.allocBytes += o.allocBytes
}

func (t *simTotals) add(r *sim.Result) {
	t.runs++
	t.refs += r.Refs
	t.simNs += r.Perf.SimulateNanos
	t.genNs += r.Perf.GenerateNanos
	if r.Perf.RestoreNanos > 0 {
		t.restores++
		t.restoreNs += r.Perf.RestoreNanos
	}
	t.allocBytes += r.Perf.AllocBytes
	t.memFetches += r.MemoryFetches
	t.l1Lookups += r.Levels[energy.L1].Lookups
	t.l1Misses += r.Levels[energy.L1].Misses
	for l := energy.L2; l < energy.NumLevels; l++ {
		t.lowerLookup += r.Levels[l].Lookups
	}
	t.l4Lookups += r.Levels[energy.L4].Lookups
	t.l4Hits += r.Levels[energy.L4].Hits
	t.predLookups += r.Pred.Lookups
	t.skips += r.Pred.TrueNegative
	t.fps += r.Pred.FalsePositive
	t.fns += r.Pred.FalseNegative
	t.recals += r.Pred.Recalibrations
	t.pfIssued += r.Prefetch.Issued
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timing writes the host-time metrics, summed over every repeat.
func (t *simTotals) timing(out map[string]float64) {
	refs := float64(t.refs)
	out["sim.simulate_ns_per_ref"] = ratio(float64(t.simNs), refs)
	out["sim.front_ns_per_ref"] = ratio(float64(t.genNs), refs)
	out["sim.restore_ms"] = ratio(float64(t.restoreNs), float64(t.restores)) / 1e6
	out["sim.alloc_bytes_per_ref"] = ratio(float64(t.allocBytes), refs)
}

// counts writes the exact simulated counts of one repeat; a change
// that only makes the simulator faster must leave them identical.
func (t *simTotals) counts(out map[string]float64) {
	refs := float64(t.refs)
	out["sim.refs"] = refs
	out["sim.mem_fetches_per_kref"] = 1000 * ratio(float64(t.memFetches), refs)
	out["cache.l1_miss_rate"] = ratio(float64(t.l1Misses), float64(t.l1Lookups))
	out["cache.lower_lookups_per_ref"] = ratio(float64(t.lowerLookup), refs)
	out["cache.l4_hit_rate"] = ratio(float64(t.l4Hits), float64(t.l4Lookups))
	out["predictor.skip_frac"] = ratio(float64(t.skips), float64(t.predLookups))
	out["predictor.fp_frac"] = ratio(float64(t.fps), float64(t.predLookups))
	out["predictor.false_negatives"] = float64(t.fns)
	out["core.recalibrations"] = float64(t.recals)
	out["prefetch.issued_per_kref"] = 1000 * ratio(float64(t.pfIssued), refs)
	out["experiment.runs"] = float64(t.runs)
}

// traceStoreLayers writes the trace store's metrics for the stats of
// the given per-repeat stores; refsPerMaterialization is the records
// one materialisation generates (cores × references per core).
func traceStoreLayers(out map[string]float64, stats []tracestore.Stats, refsPerMaterialization uint64) {
	var mats, hits, gets uint64
	var nanos int64
	var resident uint64
	for _, st := range stats {
		mats += st.Materializations
		nanos += st.MaterializeNanos
		hits += st.Hits
		gets += st.Hits + st.Misses
		if st.Bytes > resident {
			resident = st.Bytes
		}
	}
	out["workload.gen_ns_per_ref"] = ratio(float64(nanos), float64(mats*refsPerMaterialization))
	out["tracestore.materialize_ms"] = ratio(float64(nanos), float64(mats)) / 1e6
	out["tracestore.materializations"] = ratio(float64(mats), float64(len(stats)))
	out["tracestore.hit_rate"] = ratio(float64(hits), float64(gets))
	out["tracestore.resident_mib"] = float64(resident) / (1 << 20)
}

// batchMetrics writes the end-to-end metrics of a batch workload from
// its repeats: each repeat's throughput and the median and p95 of its
// job latencies, each then reduced to the median over repeats, so one
// repeat slowed by the host moves none of them.
func batchMetrics(res *result, name, job string, rates []float64, jobs [][]float64) {
	var p50s, p95s []float64
	for _, js := range jobs {
		p50s = append(p50s, median(js))
		p95s = append(p95s, percentile(sorted(js), 0.95))
	}
	res.Metrics["sim_mrefs_per_s"] = median(rates)
	res.Metrics["job_p50_ms"] = median(p50s)
	res.Layers["experiment.job_p95_ms"] = median(p95s)
	n := len(jobs[0])
	tailNote := "p95"
	if beyond(n, 0.95) < minTailSamples {
		tailNote = "slowest job (fewer than ten samples beyond p95)"
	}
	res.note("%s: %d repeats of %d jobs (job = %s); job_p50_ms and experiment.job_p95_ms are each repeat's median and %s, median over repeats",
		name, len(jobs), n, job, tailNote)
	q1, q2, q3 := quartiles(rates)
	res.note("%s: sim_mrefs_per_s over repeats: quartiles %.4g / %.4g / %.4g (interquartile range %.1f%% of the median)",
		name, q1, q2, q3, 100*iqrShare(rates))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// --- figs ---------------------------------------------------------------------

// figs is the researcher's job: every table and figure of the
// evaluation plus the paper-claim check, through the solo sim.Run
// driver and the runner's worker pool.
type figs struct {
	base sim.Config
}

func setupFigs(p plan) (instance, error) {
	base := sim.Smoke()
	base.RefsPerCore = p.scaled(figsRefsPerCore)
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return &figs{base: base}, nil
}

func (f *figs) close() error { return nil }

func (f *figs) inputs(p plan) (string, error) {
	return digest([]byte(fmt.Sprintf("figs %d %d %v", p.seed, f.base.RefsPerCore, workload.BenchmarkNames()))), nil
}

// figsRepeat is one repeat's measurements.
type figsRepeat struct {
	wall, allWall time.Duration
	runWall       time.Duration // Σ per-run wall time
	totals        simTotals
	store         tracestore.Stats
	tables        string
	failedClaims  []string
	jobs          []float64 // each run's wall time, ms
}

func (f *figs) repeat(p plan, i, par int) (*figsRepeat, error) {
	var mu sync.Mutex
	var runs []*sim.Result
	var ends []time.Time
	t0 := time.Now()
	store := tracestore.New(0)
	r, err := experiment.NewRunner(experiment.Options{
		Base:        f.base,
		Seed:        p.seed,
		Parallelism: par,
		TraceCache:  store,
		OnRun: func(u experiment.RunUpdate) {
			if u.Result == nil {
				return
			}
			end := time.Now()
			mu.Lock()
			runs = append(runs, u.Result)
			ends = append(ends, end)
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	figures, err := r.All()
	if err != nil {
		return nil, fmt.Errorf("figs: All: %w", err)
	}
	t1 := time.Now()
	claims, err := r.Verify()
	if err != nil {
		return nil, fmt.Errorf("figs: Verify: %w", err)
	}
	t2 := time.Now()

	rep := &figsRepeat{wall: t2.Sub(t0), allWall: t1.Sub(t0), store: store.Stats()}
	var tables bytes.Buffer
	for _, fig := range figures {
		fmt.Fprintf(&tables, "%s\n%s\n%s\n", fig.ID, fig.Caption, fig.Table.String())
	}
	rep.tables = digest(tables.Bytes())
	for _, c := range claims {
		if !c.Pass {
			rep.failedClaims = append(rep.failedClaims, c.Name)
		}
	}

	id := fmt.Sprintf("figs-%d", i)
	root := p.tr.add("bench.repeat", id, 0, t0, t2, nil)
	all := p.tr.add("experiment.all", id, root, t0, t1, nil)
	p.tr.add("experiment.verify", id, root, t1, t2, nil)
	for k, res := range runs {
		rep.totals.add(res)
		wall := time.Duration(res.Perf.WallNanos)
		rep.runWall += wall
		rep.jobs = append(rep.jobs, ms(wall))
		start := ends[k].Add(-wall)
		s := p.tr.add("sim.run", id, all, start, ends[k], map[string]string{
			"workload": res.Workload, "scheme": res.Scheme.String(), "inclusion": res.Inclusion.String(),
		})
		p.tr.sequence(id, s, start,
			stage{"sim.restore", time.Duration(res.Perf.RestoreNanos)},
			stage{"sim.front", time.Duration(res.Perf.GenerateNanos)},
			stage{"sim.simulate", time.Duration(res.Perf.SimulateNanos)})
	}
	return rep, nil
}

func (f *figs) run(p plan) (*result, error) {
	par := runtime.GOMAXPROCS(0)
	res := newResult()
	var reps []*figsRepeat
	var walls, rates []float64
	start := time.Now()
	p.rt.begin()
	for i := 0; !repeatsDone(start, p.window, walls); i++ {
		rep, err := f.repeat(p, i, par)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		walls = append(walls, ms(rep.wall))
		rates = append(rates, float64(rep.totals.refs)/1e6/rep.wall.Seconds())
	}
	p.rt.end()

	jobs := make([][]float64, len(reps))
	for i, rep := range reps {
		jobs[i] = rep.jobs
	}
	batchMetrics(res, "figs", "one simulated configuration", rates, jobs)
	first := reps[0]
	for i, rep := range reps {
		res.Attempted++
		ok := len(rep.failedClaims) == 0 && rep.tables == first.tables
		if !ok {
			res.Failed++
		}
		res.check(fmt.Sprintf("repeat %d: every paper claim holds", i), len(rep.failedClaims) == 0,
			"failed: %v", rep.failedClaims)
		res.check(fmt.Sprintf("repeat %d: figure tables identical to repeat 0", i), rep.tables == first.tables,
			"digest %s vs %s", rep.tables, first.tables)
	}
	in, err := f.inputs(p)
	if err != nil {
		return nil, err
	}
	res.ScheduleDigest = in
	res.ResultDigest = first.tables

	if p.tr != nil {
		var all simTotals
		var stores []tracestore.Stats
		var runWall, allWall time.Duration
		for _, rep := range reps {
			all.merge(rep.totals)
			stores = append(stores, rep.store)
			runWall += rep.runWall
			allWall += rep.allWall
		}
		all.timing(res.Layers)
		first.totals.counts(res.Layers)
		traceStoreLayers(res.Layers, stores, uint64(f.base.Cores)*f.base.RefsPerCore)
		res.Layers["experiment.pool_idle_frac"] = 1 - ratio(float64(runWall), float64(allWall)*float64(par))
	}
	return res, nil
}

// --- sweep --------------------------------------------------------------------

// sweep drives the RunMulti lockstep driver, the trace front and
// snapshot restore: per workload, one cold single-pass scheme sweep
// that captures warm-state snapshots, then a second fresh runner's
// pass that restores them and simulates only the measure window.
type sweep struct {
	base sim.Config
	// warmNames are the names sim.WarmKey sees for each workload (the
	// first source's name: mix's is its first SPEC component).
	warmNames []string
}

func setupSweep(p plan) (instance, error) {
	base := sim.Scaled()
	base.RefsPerCore = p.scaled(sweepRefsPerCore)
	base.WarmupRefsPerCore = base.RefsPerCore
	if err := base.Validate(); err != nil {
		return nil, err
	}
	s := &sweep{base: base}
	for _, wl := range sweepWorkloads {
		srcs, err := workload.Sources(wl, base.Cores, base.WorkloadScale, p.seed)
		if err != nil {
			return nil, err
		}
		s.warmNames = append(s.warmNames, srcs[0].Name())
	}
	return s, nil
}

func (s *sweep) close() error { return nil }

func (s *sweep) inputs(p plan) (string, error) {
	return digest([]byte(fmt.Sprintf("sweep %d %d %v", p.seed, s.base.RefsPerCore, sweepWorkloads))), nil
}

type sweepRepeat struct {
	wall          time.Duration
	totals        simTotals
	store         tracestore.Stats
	snaps         simstate.StoreStats
	decode        []time.Duration
	mismatched    []string
	resultsDigest string
	jobs          []float64 // each SchemeSweep call's wall time, ms
}

func (s *sweep) repeat(p plan, i int) (*sweepRepeat, error) {
	id := fmt.Sprintf("sweep-%d", i)
	traces := tracestore.New(0)
	snaps := simstate.NewStore(0)
	t0 := time.Now()
	var passes [2][][]byte
	rep := &sweepRepeat{}
	type passSpan struct {
		a, b time.Time
		wl   string
		res  []*sim.Result
	}
	var spans []passSpan
	for pass := range passes {
		r, err := experiment.NewRunner(experiment.Options{
			Base:          s.base,
			Seed:          p.seed,
			Workloads:     sweepWorkloads,
			Parallelism:   1,
			TraceCache:    traces,
			SnapshotCache: snaps,
		})
		if err != nil {
			return nil, err
		}
		for _, wl := range sweepWorkloads {
			a := time.Now()
			results, err := r.SchemeSweep(wl, sim.Schemes())
			if err != nil {
				return nil, fmt.Errorf("sweep: %s: %w", wl, err)
			}
			b := time.Now()
			spans = append(spans, passSpan{a, b, wl, results})
			rep.jobs = append(rep.jobs, ms(b.Sub(a)))
			enc, err := json.Marshal(results)
			if err != nil {
				return nil, err
			}
			passes[pass] = append(passes[pass], enc)
			for _, res := range results {
				rep.totals.add(res)
			}
		}
	}
	t1 := time.Now()
	rep.wall = t1.Sub(t0)
	rep.store = traces.Stats()
	rep.snaps = snaps.Stats()
	var all []byte
	for k, wl := range sweepWorkloads {
		if !bytes.Equal(passes[0][k], passes[1][k]) {
			rep.mismatched = append(rep.mismatched, wl)
		}
		all = append(all, passes[0][k]...)
	}
	rep.resultsDigest = digest(all)

	if p.tr != nil {
		root := p.tr.add("bench.repeat", id, 0, t0, t1, nil)
		for k, ps := range spans {
			kind := "cold"
			if k >= len(sweepWorkloads) {
				kind = "restored"
			}
			sp := p.tr.add("experiment.scheme_sweep", id, root, ps.a, ps.b, map[string]string{"workload": ps.wl, "pass": kind})
			for _, res := range ps.res {
				p.tr.sequence(id, sp, ps.a,
					stage{"sim.restore", time.Duration(res.Perf.RestoreNanos)},
					stage{"sim.front", time.Duration(res.Perf.GenerateNanos)},
					stage{"sim.simulate", time.Duration(res.Perf.SimulateNanos)})
			}
		}
		// Decode every captured blob once, outside the timed repeat:
		// the codec's cost on its own, apart from the restore it feeds.
		for k, name := range s.warmNames {
			for _, sc := range sim.Schemes() {
				blob, ok := snaps.Get(simstate.Key(sim.WarmKey(s.base.WithScheme(sc), name, p.seed)))
				if !ok {
					continue
				}
				a := time.Now()
				if _, err := simstate.Decode(blob); err != nil {
					return nil, fmt.Errorf("sweep: decode %s/%s: %w", sweepWorkloads[k], sc, err)
				}
				b := time.Now()
				rep.decode = append(rep.decode, b.Sub(a))
				p.tr.add("simstate.decode", id, 0, a, b, map[string]string{"workload": sweepWorkloads[k], "scheme": sc.String()})
			}
		}
	}
	return rep, nil
}

func (s *sweep) run(p plan) (*result, error) {
	res := newResult()
	var reps []*sweepRepeat
	var walls, rates []float64
	start := time.Now()
	p.rt.begin()
	for i := 0; !repeatsDone(start, p.window, walls); i++ {
		rep, err := s.repeat(p, i)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		walls = append(walls, ms(rep.wall))
		rates = append(rates, float64(rep.totals.refs)/1e6/rep.wall.Seconds())
	}
	p.rt.end()

	jobs := make([][]float64, len(reps))
	for i, rep := range reps {
		jobs[i] = rep.jobs
	}
	batchMetrics(res, "sweep", "one workload's scheme sweep, cold or restored", rates, jobs)
	first := reps[0]
	for i, rep := range reps {
		res.Attempted++
		ok := len(rep.mismatched) == 0 && rep.totals.fns == 0 && rep.resultsDigest == first.resultsDigest
		if !ok {
			res.Failed++
		}
		res.check(fmt.Sprintf("repeat %d: restored results equal cold results byte for byte", i),
			len(rep.mismatched) == 0, "differ on %v", rep.mismatched)
		res.check(fmt.Sprintf("repeat %d: no predictor false negatives", i), rep.totals.fns == 0,
			"%d false negatives", rep.totals.fns)
		res.check(fmt.Sprintf("repeat %d: results identical to repeat 0", i), rep.resultsDigest == first.resultsDigest,
			"digest %s vs %s", rep.resultsDigest, first.resultsDigest)
	}
	in, err := s.inputs(p)
	if err != nil {
		return nil, err
	}
	res.ScheduleDigest = in
	res.ResultDigest = first.resultsDigest

	if p.tr != nil {
		var all simTotals
		var stores []tracestore.Stats
		var decodes []float64
		var blobBytes, blobs uint64
		var snapHits, snapGets uint64
		for _, rep := range reps {
			all.merge(rep.totals)
			stores = append(stores, rep.store)
			for _, d := range rep.decode {
				decodes = append(decodes, ms(d))
			}
			blobBytes += rep.snaps.Bytes
			blobs += uint64(rep.snaps.Entries)
			snapHits += rep.snaps.Hits
			snapGets += rep.snaps.Hits + rep.snaps.Misses
		}
		all.timing(res.Layers)
		first.totals.counts(res.Layers)
		traceStoreLayers(res.Layers, stores,
			uint64(s.base.Cores)*(s.base.WarmupRefsPerCore+s.base.RefsPerCore))
		res.Layers["simstate.blob_kib"] = ratio(float64(blobBytes), float64(blobs)) / 1024
		res.Layers["simstate.hit_rate"] = ratio(float64(snapHits), float64(snapGets))
		res.Layers["simstate.decode_ms"] = median(decodes)
	}
	return res, nil
}
