package experiment

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"redhip/internal/sim"
)

// TestAdoptLeavesSchemeOutOfPass: a run filed through Adopt is served
// as the memoised result of its scheme — SchemeSweep returns the very
// same value and leaves the scheme out of its pass — and OnRun reports
// it as reused; the schemes not adopted still simulate, bit-identical
// to a runner that adopted nothing.
func TestAdoptLeavesSchemeOutOfPass(t *testing.T) {
	base := sim.Smoke()
	base.RefsPerCore = 500
	schemes := []sim.Scheme{sim.Base, sim.ReDHiP}

	donor := mustRunner(t, Options{Base: base, Seed: 2, Workloads: []string{"mcf"}, Parallelism: 1})
	want, err := donor.SchemeSweep("mcf", schemes)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	reused := map[sim.Scheme]bool{}
	r := mustRunner(t, Options{
		Base: base, Seed: 2, Workloads: []string{"mcf"}, Parallelism: 1,
		OnRun: func(u RunUpdate) {
			mu.Lock()
			reused[u.Scheme] = u.Reused
			mu.Unlock()
		},
	})
	r.Adopt("mcf", want[1])
	if got, err := r.SchemeSweep("mcf", schemes[1:]); err != nil || got[0] != want[1] {
		t.Fatalf("SchemeSweep after Adopt = %v, %v; want the adopted result", got, err)
	}
	if st := r.TraceCacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("a fully adopted sweep read the trace store (%+v), want no pass", st)
	}
	got, err := r.SchemeSweep("mcf", schemes)
	if err != nil {
		t.Fatal(err)
	}
	if !reused[sim.ReDHiP] || reused[sim.Base] || len(reused) != 2 {
		t.Fatalf("OnRun reused flags = %v, want redhip adopted and base executed", reused)
	}
	if got[1] != want[1] || !sameResult(got[0], want[0]) {
		t.Fatal("a sweep over an adopted scheme changed the other scheme's result")
	}
}

// sameResult compares two results' JSON, which leaves out host-side
// Perf.
func sameResult(a, b *sim.Result) bool {
	x, errX := json.Marshal(a)
	y, errY := json.Marshal(b)
	return errX == nil && errY == nil && bytes.Equal(x, y)
}
