package serve

import (
	"fmt"
	"sync"
)

// shedError is the admission verdict when a job's estimated trace
// footprint does not fit. Permanent means the job can never fit this
// server's budget (400); otherwise the budget is merely full right now
// (503 + Retry-After).
type shedError struct {
	Est       uint64
	Reserved  uint64
	Budget    uint64
	Permanent bool
}

func (e *shedError) Error() string {
	if e.Permanent {
		return fmt.Sprintf("serve: job needs ~%d trace bytes, exceeding the server budget of %d", e.Est, e.Budget)
	}
	return fmt.Sprintf("serve: admitting this job (~%d trace bytes) would exceed the memory budget (%d of %d bytes reserved)", e.Est, e.Reserved, e.Budget)
}

// loadShedder is byte-budget admission control: each admitted job
// reserves its estimated worst-case trace footprint (the sum of
// tracestore.Footprint over its workloads) and releases it exactly once
// on its terminal transition. A submission that would push the
// aggregate reservation past the budget is shed at the door instead
// of being admitted into an OOM.
//
// The estimate is deliberately pessimistic (it assumes every
// workload's streams are resident at once, ignoring tracestore
// sharing across jobs): shedding early is recoverable, an OOM kill is
// not.
type loadShedder struct {
	mu       sync.Mutex
	budget   uint64
	reserved uint64
	// lastDenied is the high-water mark of the smallest recently-denied
	// reservation; readiness reports shedding until the freed headroom
	// could admit it again, giving the probe a crisp, deterministic
	// flip instead of one racing individual admissions.
	lastDenied uint64
}

func newLoadShedder(budget uint64) *loadShedder {
	return &loadShedder{budget: budget}
}

// reserve claims est bytes of the budget, or explains why it cannot.
func (l *loadShedder) reserve(est uint64) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if est > l.budget {
		return &shedError{Est: est, Budget: l.budget, Permanent: true}
	}
	if l.reserved+est > l.budget {
		if l.lastDenied == 0 || est < l.lastDenied {
			l.lastDenied = est
		}
		return &shedError{Est: est, Reserved: l.reserved, Budget: l.budget}
	}
	l.reserved += est
	return nil
}

// release returns a reservation. Callers release exactly once, on the
// job's terminal transition; the clamp below is pure defence.
func (l *loadShedder) release(est uint64) {
	if l == nil || est == 0 {
		return
	}
	l.mu.Lock()
	if est > l.reserved {
		est = l.reserved
	}
	l.reserved -= est
	if l.lastDenied > 0 && l.budget-l.reserved >= l.lastDenied {
		l.lastDenied = 0
	}
	l.mu.Unlock()
}

// active reports whether the shedder has denied an admission that the
// current headroom still could not satisfy — the readiness signal.
func (l *loadShedder) active() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastDenied > 0
}

// usage returns the reserved bytes and the budget for /metrics.
func (l *loadShedder) usage() (reserved, budget uint64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reserved, l.budget
}
