// Command benchmark measures the redhip simulator, the simulation
// service and the cluster router end to end, and layer by layer in a
// traced run. Build and run it from the repository root:
//
//	bash benchmark/run.sh --workload figs --seed 1 --seconds 25 --trace 0
//
// Each run measures one workload (figs, sweep, serve or cluster) in a
// child process of its own, so set-up time and peak memory belong to
// that workload alone, checks the outputs, prints a report to standard
// error and, as the last line of standard output, one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"}}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, writes the spans, and prints each layer's self
// time and the tracing overhead. README.md describes the workloads and
// metrics. The exit code is 0 when every check passed, 1 when a check
// failed (the JSON line is still printed), 2 when the run could not be
// measured at all.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// setupProbes extra child processes per run only set up and exit;
// setup_s is the median over them and the measured child.
const setupProbes = 5

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: figs, sweep, serve or cluster")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 25, "measurement window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, spans and self times")
	spansPath := fs.String("spans", "", "traced run: write the spans here (default .bench_build/spans-<workload>-<seed>.json)")
	child := fs.String("child", "", "internal: run as the workload process (setup or run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := lookupWorkload(*name); !ok {
		fmt.Fprintf(stderr, "benchmark: --workload must be one of figs, sweep, serve, cluster (got %q)\n", *name)
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 || *seed == 0 {
		fmt.Fprintln(stderr, "benchmark: need --seconds > 0, --trace 0 or 1, and --seed > 0")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))

	if *child != "" {
		p := plan{seed: *seed, window: window, scale: 1}
		if *traced == 1 {
			p.tr, p.rt = &tracer{}, newRuntimeSampler()
		}
		if err := childMain(*child, *name, p, *spansPath); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}

	var out output
	var err error
	if *traced == 1 {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		}
		out, err = tracedRun(stderr, *name, *seed, window, path)
	} else {
		out, err = plainRun(stderr, *name, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childRun is one finished workload process.
type childRun struct {
	setup  time.Duration // process start → "ready"
	maxRSS float64       // MiB
	res    *result       // nil for set-up probes
}

// runChild runs this binary as a workload process and waits for it.
func runChild(stderr io.Writer, mode, name string, seed uint64, window time.Duration, traced bool, spans string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), window+120*time.Second)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", mode, "--workload", name,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(window.Seconds(), 'f', -1, 64),
		"--trace", trace, "--spans", spans)
	cmd.Stderr = stderr
	if def, _ := lookupWorkload(name); def.spareProc {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()+1))
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	dieWithParent(cmd)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run := &childRun{}
	ready := false
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if !ready && sc.Text() == "ready" {
			run.setup, ready = time.Since(start), true
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s %s: timed out: %w", name, mode, ctx.Err())
		}
		return nil, fmt.Errorf("%s %s: %w", name, mode, err)
	}
	if scanErr != nil {
		return nil, fmt.Errorf("%s %s: reading output: %w", name, mode, scanErr)
	}
	if !ready {
		return nil, fmt.Errorf("%s %s: never reported ready", name, mode)
	}
	run.maxRSS = maxRSSMiB(cmd.ProcessState)
	if mode == "run" {
		if err := json.Unmarshal(last, &run.res); err != nil || run.res == nil {
			return nil, fmt.Errorf("%s: malformed result line %q: %v", name, last, err)
		}
	}
	return run, nil
}

// plainRun measures the end-to-end metrics.
func plainRun(stderr io.Writer, name string, seed uint64, window time.Duration) (output, error) {
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		c, err := runChild(stderr, "setup", name, seed, window, false, "")
		if err != nil {
			return output{}, err
		}
		setups = append(setups, c.setup.Seconds())
	}
	c, err := runChild(stderr, "run", name, seed, window, false, "")
	if err != nil {
		return output{}, err
	}
	setups = append(setups, c.setup.Seconds())
	metrics, err := endToEndMetrics(endToEndValues(c, median(setups)))
	if err != nil {
		return output{}, fmt.Errorf("%s: %w", name, err)
	}
	out := output{Correct: c.res.correct(), Attempted: c.res.Attempted, Failed: c.res.Failed, Metrics: metrics}
	report(stderr, name, c.res, out.Metrics, endToEnd)
	fmt.Fprintf(stderr, "%s: setup_s is the median of %d set-ups (%d probes and the measured process)\n", name, len(setups), setupProbes)
	return out, nil
}

// endToEndMetrics labels every end-to-end metric with its unit. Each
// must be measured and positive: a zero or missing value is a bug in
// the benchmark, not a reading.
func endToEndMetrics(vals map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, d := range endToEnd {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// perLayerMetrics labels every per-layer metric with its unit; a layer
// the workload does not exercise reads 0.
func perLayerMetrics(vals map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, d := range perLayer {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// endToEndValues merges the metrics measured outside the child (set-up
// time, peak RSS) with those it measured itself.
func endToEndValues(c *childRun, setup float64) map[string]float64 {
	vals := map[string]float64{"setup_s": setup, "peak_rss_mib": c.maxRSS}
	for k, v := range c.res.Metrics {
		vals[k] = v
	}
	return vals
}

// tracedRun runs the workload twice on the same inputs, half the
// window each: untraced, then traced. The traced process gives the
// per-layer metrics and spans; the difference between the two is the
// tracing overhead.
func tracedRun(stderr io.Writer, name string, seed uint64, window time.Duration, spans string) (output, error) {
	half := window / 2
	plain, err := runChild(stderr, "run", name, seed, half, false, "")
	if err != nil {
		return output{}, err
	}
	traced, err := runChild(stderr, "run", name, seed, half, true, spans)
	if err != nil {
		return output{}, err
	}
	out := output{
		Correct:   plain.res.correct() && traced.res.correct(),
		Attempted: plain.res.Attempted + traced.res.Attempted,
		Failed:    plain.res.Failed + traced.res.Failed,
		Metrics:   perLayerMetrics(traced.res.Layers),
	}
	report(stderr, name, traced.res, out.Metrics, perLayer)
	for _, c := range plain.res.Checks {
		if !c.OK {
			fmt.Fprintf(stderr, "  FAIL  untraced: %s: %s\n", c.Name, c.Detail)
		}
	}

	pv, tv := endToEndValues(plain, plain.setup.Seconds()), endToEndValues(traced, traced.setup.Seconds())
	fmt.Fprintf(stderr, "%s: tracing overhead (traced minus untraced, %s windows, same inputs)\n", name, half)
	fmt.Fprintf(stderr, "  %-16s %12s %12s %9s\n", "metric", "untraced", "traced", "change")
	for _, d := range endToEnd {
		fmt.Fprintf(stderr, "  %-16s %12.4g %12.4g %+8.1f%%\n", d.Name, pv[d.Name], tv[d.Name],
			100*ratio(tv[d.Name]-pv[d.Name], pv[d.Name]))
	}
	return out, nil
}

// report prints the metrics, notes and checks of one run.
func report(w io.Writer, name string, res *result, metrics map[string]metric, defs []metricDef) {
	for _, n := range res.Notes {
		fmt.Fprintf(w, "%s\n", n)
	}
	fmt.Fprintf(w, "%s: %d attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, d := range defs {
		m := metrics[d.Name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	checks := append([]check(nil), res.Checks...)
	sort.SliceStable(checks, func(i, j int) bool { return !checks[i].OK && checks[j].OK })
	for _, c := range checks {
		if c.OK {
			fmt.Fprintf(w, "  PASS  %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "  FAIL  %s: %s\n", c.Name, c.Detail)
		}
	}
}
