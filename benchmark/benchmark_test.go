package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// shortPlan is a 1/50-scale plan: the serving workloads get a
// one-second window, the batch ones their minimum of two repeats.
func shortPlan(def workloadDef, seed uint64) plan {
	p := plan{seed: seed, scale: 1.0 / 50}
	if def.spareProc {
		p.window = time.Second
	}
	return p
}

// runShort sets a workload up in-process at 1/50 scale and runs it;
// the caller closes the returned instance.
func runShort(t *testing.T, def workloadDef, seed uint64, traced bool) (*result, instance) {
	t.Helper()
	p := shortPlan(def, seed)
	if traced {
		p.tr, p.rt = &tracer{}, newRuntimeSampler()
	}
	inst, err := def.setup(p)
	if err != nil {
		t.Fatalf("%s set-up: %v", def.name, err)
	}
	res, err := inst.run(p)
	if err != nil {
		_ = inst.close()
		t.Fatalf("%s run: %v", def.name, err)
	}
	p.rt.addTo(res.Layers)
	return res, inst
}

// TestShortRun runs all four workloads small: every metric the
// benchmark names is emitted with its unit, equal seeds give equal
// inputs and outputs, and another seed gives other inputs.
func TestShortRun(t *testing.T) {
	emitted := map[string]bool{}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			plain, inst := runShort(t, def, 1, false)
			if err := inst.close(); err != nil {
				t.Fatal(err)
			}
			traced, inst := runShort(t, def, 1, true)
			defer func() {
				if err := inst.close(); err != nil {
					t.Error(err)
				}
			}()

			for _, res := range []*result{plain, traced} {
				if res.Attempted < 1 {
					t.Errorf("attempted = %d, want at least 1", res.Attempted)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check failed: %s: %s", c.Name, c.Detail)
					}
				}
				// The parent adds set-up time and peak RSS; everything
				// else must come from the workload itself.
				vals := map[string]float64{"setup_s": 1, "peak_rss_mib": 1}
				for k, v := range res.Metrics {
					vals[k] = v
				}
				m, err := endToEndMetrics(vals)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range endToEnd {
					if m[d.Name].Unit != d.Unit {
						t.Errorf("%s emitted with unit %q, want %q", d.Name, m[d.Name].Unit, d.Unit)
					}
				}
			}
			for k := range traced.Layers {
				emitted[k] = true
			}
			for k, v := range perLayerMetrics(traced.Layers) {
				if v.Unit == "" {
					t.Errorf("per-layer metric %s has no unit", k)
				}
			}

			if plain.ScheduleDigest != traced.ScheduleDigest || plain.ResultDigest != traced.ResultDigest {
				t.Errorf("seed 1 twice: schedule %s/%s, results %s/%s; want equal",
					plain.ScheduleDigest, traced.ScheduleDigest, plain.ResultDigest, traced.ResultDigest)
			}
			other, err := inst.inputs(shortPlan(def, 2))
			if err != nil {
				t.Fatal(err)
			}
			if other == plain.ScheduleDigest {
				t.Errorf("seed 2 produced seed 1's schedule %s", other)
			}
		})
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
		if !emitted[d.Name] {
			t.Errorf("no workload emits per-layer metric %s", d.Name)
		}
	}
	for k := range emitted {
		if !known[k] {
			t.Errorf("a workload emits %s, which BENCHMARK.json does not name", k)
		}
	}
}

// benchFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark's
// contract and against the metrics this package actually emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(top))
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if strings.Join(b.Command, " ") != "bash benchmark/run.sh" || strings.Join(b.Paths, " ") != "benchmark" {
		t.Errorf("command %v, paths %v: want the run script and its directory", b.Command, b.Paths)
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	// Driver runs: 4 + 22 per workload, each at least run_seconds long.
	if total := (4 + 22*len(b.Workloads)) * b.RunSeconds; total > 3420 {
		t.Errorf("%d s of measurement alone exceeds the 3420 s budget", total)
	}

	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if used[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		used[n] = true
	}
	workloadNames := map[string]bool{}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		workloadNames[w.Name] = true
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}

	e2eNames := map[string]bool{}
	maxBound := 0.0
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark emits %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		name("metric", m.Name)
		e2eNames[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q / better %q malformed", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		} else if *m.Bound > maxBound {
			maxBound = *m.Bound
		}
		if i < len(endToEnd) && (endToEnd[i].Name != m.Name || endToEnd[i].Unit != m.Unit || endToEnd[i].Better != m.Better) {
			t.Errorf("end-to-end %d is %s/%s/%s in BENCHMARK.json, %+v in the benchmark", i, m.Name, m.Unit, m.Better, endToEnd[i])
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound == nil || *m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound")
		}
	}
	if !e2eNames["setup_s"] {
		t.Error("setup_s is missing")
	}

	layerSet := map[string]bool{}
	for _, l := range layers {
		layerSet[l] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark emits %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q / better %q malformed", m.Name, m.Unit, m.Better)
		}
		if i >= len(perLayer) {
			continue
		}
		d := perLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d is %s/%s/%s in BENCHMARK.json, %s/%s/%s in the benchmark", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if !layerSet[layerOf(d.Name)] {
			t.Errorf("%s: layer %q is not one of %v", d.Name, layerOf(d.Name), layers)
		}
		if len(d.Moves) == 0 {
			t.Errorf("%s names no end-to-end metric it moves", d.Name)
		}
		for _, mv := range d.Moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if !ok || !e2eNames[metric] || !workloadNames[wl] {
				t.Errorf("%s moves %q: want <end-to-end metric>@<workload>", d.Name, mv)
			}
		}
	}
}
