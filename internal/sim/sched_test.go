package sim

import (
	"math"
	"math/rand"
	"testing"
)

// schedModel is the reference the loser tree is checked against: the
// per-core clocks, which cores still have work, and a lowest-index-wins
// linear scan over (clock, id).
type schedModel struct {
	clock []float64
	live  []bool
}

// want returns the core a linear scan dispatches, or -1 when every core
// is done.
func (m *schedModel) want() int {
	w := -1
	for c, clk := range m.clock {
		if m.live[c] && (w < 0 || clk < m.clock[w]) {
			w = c
		}
	}
	return w
}

// load copies the model into the tree's keys, as engine.reseat does.
func (m *schedModel) load(s *coreSched) {
	for c, clk := range m.clock {
		if !m.live[c] {
			clk = math.Inf(1)
		}
		s.key[c] = math.Float64bits(clk)
	}
}

// TestSchedKeyOrder checks the tree's integer comparison against the
// order it stands for: (Float64bits(clock), id) must order exactly as
// (clock, id) over the clocks the engine produces — non-negative
// floats and +Inf — with ties, adjacent floats and both extremes.
func TestSchedKeyOrder(t *testing.T) {
	clocks := []float64{0, math.SmallestNonzeroFloat64, 1, 2.5, 1e300, math.MaxFloat64, math.Inf(1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		clocks = append(clocks, float64(rng.Intn(1000))*1.5, rng.Float64()*1e9)
	}
	for _, c := range append([]float64(nil), clocks...) {
		if c > 0 && !math.IsInf(c, 1) {
			clocks = append(clocks, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
		}
	}
	ids := []uint64{0, 1, 2, 7, 15}
	for _, a := range clocks {
		for _, b := range clocks {
			for _, ai := range ids {
				for _, bi := range ids {
					want := a < b || (a == b && ai < bi)
					x := schedEnt{key: math.Float64bits(a), id: ai}
					y := schedEnt{key: math.Float64bits(b), id: bi}
					if got := x.beats(y); got != want {
						t.Fatalf("(%v, %d) beats (%v, %d) = %v, want %v", a, ai, b, bi, got, want)
					}
				}
			}
		}
	}
}

// FuzzCoreSched drives the scheduler tree the way runWindow does and
// checks every winner against the linear scan. The first byte picks the
// core count (1-16); each later byte is one step on the current winner:
//
//	op 0, 1: its clock grows by 0-31 steps of one shared CPI (a zero
//	         step, or the all-zero start, leaves it tied with others)
//	op 2:    it retires (window done or source exhausted): key +Inf
//	op 3:    every clock is bumped by the same amount, as recalibration
//	         does, and the tree is rebuilt from the clocks
//
// Steps on a fully retired machine revive every core, as the next window
// does.
func FuzzCoreSched(f *testing.F) {
	f.Add([]byte{7})
	f.Add([]byte{0, 0, 0, 2, 0, 3})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 3, 0})
	f.Add([]byte{15, 4, 8, 12, 16, 3, 2, 6, 10, 3, 2, 2, 2, 2, 1, 5})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []byte{1, 2, 5, 7, 8, 11, 15} {
		ops := make([]byte, 1+rng.Intn(400))
		rng.Read(ops)
		f.Add(append([]byte{n}, ops...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cores := 1 + int(data[0])%16
		const cpi = 1.5
		m := schedModel{clock: make([]float64, cores), live: make([]bool, cores)}
		for c := range m.live {
			m.live[c] = true
		}
		s := newCoreSched(cores)
		m.load(&s)
		s.rebuild()
		for i, b := range data[1:] {
			w, key := int(s.tree[0].id), math.Float64frombits(s.tree[0].key)
			want := m.want()
			if want < 0 {
				if !math.IsInf(key, 1) {
					t.Fatalf("step %d: every core is done but winner %d has key %v", i, w, key)
				}
				for c := range m.live {
					m.live[c] = true
				}
				m.load(&s)
				s.rebuild()
				continue
			}
			if w != want || key != m.clock[want] {
				t.Fatalf("step %d, %d cores: tree picks core %d (key %v), linear scan picks %d (clock %v)",
					i, cores, w, key, want, m.clock[want])
			}
			switch b & 3 {
			case 0, 1:
				m.clock[w] += float64(b>>3) * cpi
				s.replay(w, m.clock[w])
			case 2:
				m.live[w] = false
				s.replay(w, math.Inf(1))
			case 3:
				for c := range m.clock {
					m.clock[c] += float64(b >> 2)
				}
				m.load(&s)
				s.rebuild()
			}
		}
	})
}
