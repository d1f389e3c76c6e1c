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
		s.key[c] = clk
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
			w := s.tree[0].id
			want := m.want()
			if want < 0 {
				if !math.IsInf(s.tree[0].key, 1) {
					t.Fatalf("step %d: every core is done but winner %d has key %v", i, w, s.tree[0].key)
				}
				for c := range m.live {
					m.live[c] = true
				}
				m.load(&s)
				s.rebuild()
				continue
			}
			if w != want || s.tree[0].key != m.clock[want] {
				t.Fatalf("step %d, %d cores: tree picks core %d (key %v), linear scan picks %d (clock %v)",
					i, cores, w, s.tree[0].key, want, m.clock[want])
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
