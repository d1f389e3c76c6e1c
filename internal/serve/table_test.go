package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// resolveJob registers spec in a job table the way admitSpec does,
// minus admission control, with its submission time pinned to now.
func resolveJob(t *testing.T, tbl *Table[*Job], spec Spec, now time.Time) (*Job, bool) {
	t.Helper()
	j, created, err := tbl.Resolve(spec.key(), nil, func(id string) *Job { return newJob(id, spec, now) })
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return j, created
}

// raceEntry is a table entry that counts attaches landing after a
// failed or cancelled finish: a submission deduplicated onto a corpse.
type raceEntry struct {
	mu    sync.Mutex
	state State //redhip:guardedby mu
	late  int   //redhip:guardedby mu
}

func (e *raceEntry) Terminal() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state.Terminal()
}

func (e *raceEntry) Attach() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == StateFailed || e.state == StateCancelled {
		e.late++
	}
}

func (e *raceEntry) finish(state State) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Terminal() {
		return false
	}
	e.state = state
	return true
}

func (e *raceEntry) lateAttaches() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.late
}

// TestTableFinishReleaseNoLateAttach hammers one key with concurrent
// Resolve and FinishRelease calls (run it under -race). Because the
// terminal transition and the key release share one table-lock hold,
// no Resolve may ever attach to an entry that already failed or was
// cancelled.
func TestTableFinishReleaseNoLateAttach(t *testing.T) {
	tbl := NewTable[*raceEntry]("e-%d", 16)
	var (
		mu  sync.Mutex
		all []*raceEntry
	)
	create := func(string) *raceEntry {
		e := &raceEntry{state: StateQueued}
		mu.Lock()
		all = append(all, e)
		mu.Unlock()
		return e
	}
	const goroutines, rounds = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e, _, err := tbl.Resolve("k", nil, create)
				if err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				state := StateFailed
				if (g+i)%2 == 0 {
					state = StateCancelled
				}
				tbl.FinishRelease("k", e, func() bool { return e.finish(state) })
			}
		}(g)
	}
	wg.Wait()

	if len(all) < 2 {
		t.Fatalf("only %d entries created: the key was never released", len(all))
	}
	for i, e := range all {
		if n := e.lateAttaches(); n != 0 {
			t.Fatalf("entry %d of %d took %d attaches after its failed/cancelled finish", i, len(all), n)
		}
	}
	if n := tbl.Len(); n > 16 {
		t.Fatalf("table holds %d terminal entries, bound is 16", n)
	}
}

// TestTableEvictionAndAdmit: terminal entries evict oldest-first past
// the bound while live ones stay resident, and FullLocked lets an admit
// hook refuse once every resident is live.
func TestTableEvictionAndAdmit(t *testing.T) {
	tbl := NewTable[*raceEntry]("e-%d", 2)
	admit := func() error {
		if tbl.FullLocked() {
			return errTableFullTest
		}
		return nil
	}
	newEntry := func(string) *raceEntry { return &raceEntry{state: StateQueued} }
	a, _, _ := tbl.Resolve("a", admit, newEntry)
	b, _, _ := tbl.Resolve("b", admit, newEntry)
	if _, _, err := tbl.Resolve("c", admit, newEntry); err != errTableFullTest {
		t.Fatalf("third live entry: err = %v, want refusal", err)
	}
	if got, created, _ := tbl.Resolve("a", admit, newEntry); created || got != a {
		t.Fatalf("a full table must still deduplicate")
	}
	tbl.FinishRelease("a", a, func() bool { return a.finish(StateDone) })
	c, created, err := tbl.Resolve("c", admit, newEntry)
	if err != nil || !created {
		t.Fatalf("after a finished: created=%v err=%v", created, err)
	}
	if tbl.Get("e-1") != nil || tbl.Get("e-2") != b || tbl.Get("e-3") != c {
		t.Fatalf("eviction did not drop exactly the oldest terminal entry")
	}
	if got := tbl.List(); len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("List = %v, want [b c] in insertion order", got)
	}
	// A done entry keeps its key until evicted; after eviction the key
	// resolves fresh.
	if got, created, _ := tbl.Resolve("a", nil, newEntry); !created || got == a {
		t.Fatalf("evicted key a did not resolve fresh")
	}
}

var errTableFullTest = errors.New("table full")
