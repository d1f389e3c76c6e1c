package serve

import (
	"testing"

	"redhip/internal/tracestore"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	n, err := Spec{Workloads: []string{"mcf", "mcf", "lbm"}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Workloads); got != 2 {
		t.Fatalf("workloads deduped to %d, want 2", got)
	}
	if got := len(n.Schemes); got != 5 {
		t.Fatalf("default schemes = %d, want all 5", got)
	}
	if n.Geometry != "scaled" || n.Inclusion != "inclusive" || n.Seed != 1 {
		t.Fatalf("defaults not filled: %+v", n)
	}
	if n.runs() != 10 {
		t.Fatalf("runs = %d, want 10", n.runs())
	}
}

// The dedup key hashes the canonical form: spelling defaults out, or
// changing only execution knobs (timeout), must not split jobs; any
// result-affecting field must.
func TestSpecKey(t *testing.T) {
	base, err := Spec{Workloads: []string{"mcf"}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Spec{
		Workloads: []string{"mcf"},
		Schemes:   []string{"base", "phased", "cbf", "redhip", "oracle"},
		Geometry:  "scaled",
		Inclusion: "inclusive",
		Seed:      1,
	}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.key() != explicit.key() {
		t.Fatalf("defaulted and explicit specs key differently: %s vs %s", base.key(), explicit.key())
	}

	timed := base
	timed.TimeoutSeconds = 30
	if base.key() != timed.key() {
		t.Fatalf("timeout split the dedup key")
	}

	// Literal keys pin the hash itself, not only its equalities: a
	// change to Spec's fields or their JSON encoding that moves any of
	// these splits every cached job and every ring placement.
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"default", Spec{Workloads: []string{"mcf"}}, "2abfca193e9dd2d6"},
		{"multi-workload", Spec{Workloads: []string{"mcf", "lbm", "milc"}, Schemes: []string{"base", "redhip"}, Geometry: "smoke"}, "5739bf7db29ac137"},
		{"timeout", Spec{Workloads: []string{"lbm"}, Geometry: "smoke", Seed: 7, TimeoutSeconds: 30}, "7659f11b9d0e6041"},
		{"warmup-prefetch", Spec{Workloads: []string{"soplex"}, Schemes: []string{"redhip"}, Inclusion: "hybrid", RefsPerCore: 4000, WarmupRefsPerCore: 1000, Cores: 2, Prefetch: true}, "3067310c538deb30"},
	} {
		n, err := c.spec.normalize()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := n.key(); got != c.want {
			t.Errorf("%s: key = %s, want %s", c.name, got, c.want)
		}
	}

	for name, mutate := range map[string]func(*Spec){
		"workload":  func(s *Spec) { s.Workloads = []string{"lbm"} },
		"schemes":   func(s *Spec) { s.Schemes = []string{"base"} },
		"geometry":  func(s *Spec) { s.Geometry = "smoke" },
		"inclusion": func(s *Spec) { s.Inclusion = "hybrid" },
		"seed":      func(s *Spec) { s.Seed = 7 },
		"refs":      func(s *Spec) { s.RefsPerCore = 123 },
		"cores":     func(s *Spec) { s.Cores = 2 },
		"prefetch":  func(s *Spec) { s.Prefetch = true },
	} {
		m := base
		mutate(&m)
		if m.key() == base.key() {
			t.Errorf("mutating %s did not change the dedup key", name)
		}
	}
}

func TestSpecInvalid(t *testing.T) {
	cases := map[string]Spec{
		"no workloads":   {},
		"bad workload":   {Workloads: []string{"zork"}},
		"bad scheme":     {Workloads: []string{"mcf"}, Schemes: []string{"zork"}},
		"bad geometry":   {Workloads: []string{"mcf"}, Geometry: "zork"},
		"bad inclusion":  {Workloads: []string{"mcf"}, Inclusion: "zork"},
		"negative cores": {Workloads: []string{"mcf"}, Cores: -1},
		"bad timeout":    {Workloads: []string{"mcf"}, TimeoutSeconds: -3},
		"cbf exclusive":  {Workloads: []string{"mcf"}, Schemes: []string{"cbf"}, Inclusion: "exclusive"},
	}
	for name, spec := range cases {
		if _, err := spec.normalize(); err == nil {
			t.Errorf("%s: normalize accepted %+v", name, spec)
		}
	}
}

// Admission must reserve what the trace store will charge: the
// estimate equals the summed Bytes of the entries the job's runs fill,
// whether a workload has one stream for every core (mcf) or one per
// core (pmf).
func TestEstimateTraceBytesMatchesStore(t *testing.T) {
	n, err := Spec{Workloads: []string{"mcf", "pmf"}, Geometry: "smoke", Cores: 4, RefsPerCore: 300, WarmupRefsPerCore: 200, Seed: 5}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := n.configForScheme(n.Schemes[0])
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(0)
	var want uint64
	for _, w := range n.Workloads {
		mat, err := store.Get(tracestore.Key{
			Workload:    w,
			Cores:       cfg.Cores,
			Scale:       cfg.WorkloadScale,
			Seed:        n.Seed,
			RefsPerCore: cfg.WarmupRefsPerCore + cfg.RefsPerCore,
		})
		if err != nil {
			t.Fatal(err)
		}
		want += mat.Bytes()
	}
	if got := n.estimateTraceBytes(); got != want {
		t.Fatalf("estimateTraceBytes = %d, the store charges %d", got, want)
	}
}
