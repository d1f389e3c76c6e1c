package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// plan is what a workload gets from the command line.
type plan struct {
	seed   uint64
	window time.Duration
	// scale multiplies every trace length; 1 in a real run, 1/50 in
	// the short test.
	scale float64
	// tr and rt are nil in the untraced run.
	tr *tracer
	rt *runtimeSampler
}

// scaled shrinks a reference count by the plan's scale. The floor is
// the shortest trace on which every paper claim still holds at the
// smoke geometry, so the figs checks stay meaningful when shrunk.
func (p plan) scaled(refs uint64) uint64 {
	n := uint64(float64(refs) * p.scale)
	if n < 10_000 {
		n = 10_000
	}
	return n
}

// result is what a workload run reports back to the parent process.
type result struct {
	// Metrics holds the end-to-end metrics the run measured itself
	// (everything but setup_s and peak_rss_mib, which the parent
	// measures from outside the process).
	Metrics map[string]float64 `json:"metrics"`
	// Layers holds the per-layer metrics (traced run only).
	Layers    map[string]float64 `json:"layers,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	// Notes are human-readable lines for the report: sample counts and
	// which percentile a tail is.
	Notes []string `json:"notes,omitempty"`
	// ScheduleDigest hashes the generated inputs and ResultDigest the
	// checked outputs; equal seeds must give equal digests.
	ScheduleDigest string `json:"schedule_digest"`
	ResultDigest   string `json:"result_digest"`
}

// check is one output check. A failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Layers: map[string]float64{}}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed and no operation failed.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// instance is one prepared benchmark workload: set up, then run once.
type instance interface {
	// run measures for the plan's window, then checks the outputs.
	run(p plan) (*result, error)
	// inputs hashes the inputs a run with this plan would generate.
	inputs(p plan) (string, error)
	close() error
}

// workloadDef names a workload and builds it. setup is everything the
// benchmark does before its first timed operation.
type workloadDef struct {
	name  string
	setup func(p plan) (instance, error)
	// spareProc runs the workload process with one Go processor more
	// than the machine has CPUs. The serving workloads need it: their
	// load generator shares the process with two simulation workers,
	// and without a processor of its own it waits out the runtime's
	// 10 ms preemption slices behind them and sends late, inflating
	// every latency it measures.
	spareProc bool
}

var workloads = []workloadDef{
	{"figs", setupFigs, false},
	{"sweep", setupSweep, false},
	{"serve", setupServe, true},
	{"cluster", setupCluster, true},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runtimeSampler reads the Go runtime over a workload's measurement
// window: allocation rate, GC CPU share and the goroutine peak.
type runtimeSampler struct {
	stop  chan struct{}
	peak  chan int // the sampling goroutine's answer, sent once on stop
	start time.Time
	ms0   runtime.MemStats
	out   map[string]float64
}

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{out: map[string]float64{}}
}

// begin marks the start of the measurement window.
func (s *runtimeSampler) begin() {
	if s == nil {
		return
	}
	runtime.ReadMemStats(&s.ms0)
	s.start = time.Now()
	s.stop, s.peak = make(chan struct{}), make(chan int, 1)
	go samplePeak(s.stop, s.peak)
}

// samplePeak polls the goroutine count until stop closes, then sends
// the highest it saw.
func samplePeak(stop <-chan struct{}, peak chan<- int) {
	most := runtime.NumGoroutine()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			peak <- most
			return
		case <-tick.C:
			if n := runtime.NumGoroutine(); n > most {
				most = n
			}
		}
	}
}

// end closes the window and records the runtime metrics.
func (s *runtimeSampler) end() {
	if s == nil || s.stop == nil {
		return
	}
	close(s.stop)
	peak := <-s.peak
	s.stop = nil
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	secs := time.Since(s.start).Seconds()
	s.out["runtime.alloc_mib_per_s"] = float64(ms1.TotalAlloc-s.ms0.TotalAlloc) / (1 << 20) / secs
	s.out["runtime.gc_cpu_frac"] = ms1.GCCPUFraction
	s.out["runtime.goroutines_peak"] = float64(peak)
}

// addTo copies the runtime metrics into a per-layer map.
func (s *runtimeSampler) addTo(layers map[string]float64) {
	if s == nil {
		return
	}
	for k, v := range s.out {
		layers[k] = v
	}
}

// childMain is one workload process. It sets the workload up, prints
// "ready" (the parent times set-up from its own clock, process start
// included), and then either tears down (mode "setup") or runs the
// window and prints the result as one JSON line.
func childMain(mode, name string, p plan, spansPath string) error {
	def, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	w, err := def.setup(p)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	fmt.Println("ready")
	if mode == "setup" {
		return w.close()
	}
	res, err := w.run(p)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s teardown: %w", name, cerr)
	}
	if err != nil {
		return err
	}
	p.rt.addTo(res.Layers)
	if p.tr != nil {
		spans := p.tr.all()
		printSelfTimes(os.Stderr, name, selfTimes(spans))
		if spansPath != "" {
			if err := writeSpans(spansPath, name, p.seed, spans); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", name, len(spans), spansPath)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
