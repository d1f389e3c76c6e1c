package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// breakerState is one scheme's circuit position.
type breakerState int

const (
	// breakerClosed admits normally; consecutive run failures count
	// toward the threshold.
	breakerClosed breakerState = iota
	// breakerHalfOpen admits probes after the cooldown: the next run
	// outcome for the scheme decides between closed and open.
	breakerHalfOpen
	// breakerOpen sheds every admission naming the scheme with 503 +
	// Retry-After until the cooldown elapses.
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	}
	return fmt.Sprintf("breakerState(%d)", int(s))
}

// breakerOpenError is the admission verdict for a shed job; handlers
// map it to 503 with Retry-After = ceil(RetryAfter seconds).
type breakerOpenError struct {
	Scheme     string
	RetryAfter time.Duration
}

func (e *breakerOpenError) Error() string {
	return fmt.Sprintf("serve: circuit breaker open for scheme %q (retry in %s)", e.Scheme, e.RetryAfter.Round(time.Second))
}

// schemeBreaker is one scheme's circuit.
type schemeBreaker struct {
	state    breakerState
	fails    int // consecutive run failures while closed
	openedAt time.Time
}

// breaker is the per-scheme circuit breaker: repeated run failures
// under one scheme trip its circuit, and admissions naming a tripped
// scheme are shed instead of burning worker slots on a sweep that is
// currently failing (a poisoned geometry, a faulty backend, an
// injected chaos schedule). State is per scheme because failures are:
// a broken "cbf" sweep says nothing about "redhip" jobs.
//
// The state machine is the classic three-state breaker: closed ->
// (threshold consecutive run failures) -> open -> (cooldown elapses)
// -> half-open -> one run outcome -> closed or open again. Half-open
// admits traffic rather than a single bookkept probe: the first run
// outcome for the scheme decides, which keeps admission unwind paths
// (queue full, shed) free of probe-token leaks.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injected by tests for deterministic cooldowns
	schemes   map[string]*schemeBreaker
	trips     *Counter // transitions to open, over all schemes
}

func newBreaker(threshold int, cooldown time.Duration, trips *Counter) *breaker {
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		schemes:   make(map[string]*schemeBreaker),
		trips:     trips,
	}
}

// allow admits or sheds a job naming the given schemes. An open
// circuit past its cooldown flips to half-open and admits; an open
// circuit inside the cooldown sheds with the remaining wait.
func (b *breaker) allow(schemes []string) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sc := range schemes {
		sb := b.schemes[sc]
		if sb == nil || sb.state != breakerOpen {
			continue
		}
		since := b.now().Sub(sb.openedAt)
		if since >= b.cooldown {
			sb.state = breakerHalfOpen
			continue
		}
		return &breakerOpenError{Scheme: sc, RetryAfter: b.cooldown - since}
	}
	return nil
}

// onRun feeds one run outcome into the scheme's circuit. Successes
// close it and reset the failure streak; failures extend the streak,
// trip the circuit at the threshold, and re-trip a half-open circuit
// immediately.
func (b *breaker) onRun(scheme string, failed bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	sb := b.schemes[scheme]
	if !failed {
		if sb != nil {
			sb.state = breakerClosed
			sb.fails = 0
		}
		return
	}
	if sb == nil {
		sb = &schemeBreaker{}
		b.schemes[scheme] = sb
	}
	switch sb.state {
	case breakerHalfOpen:
		sb.state = breakerOpen
		sb.openedAt = b.now()
		b.trips.Inc()
	case breakerClosed:
		sb.fails++
		if sb.fails >= b.threshold {
			sb.state = breakerOpen
			sb.openedAt = b.now()
			b.trips.Inc()
		}
	case breakerOpen:
		// Stragglers from jobs admitted before the trip; the cooldown
		// window is not extended — bounded shed time mirrors bounded
		// staleness everywhere else in the system.
	}
}

// openSchemes returns the schemes whose circuit is currently open
// (inside its cooldown), sorted — the readiness probe's shed signal.
func (b *breaker) openSchemes() []string {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for sc, sb := range b.schemes {
		if sb.state == breakerOpen && b.now().Sub(sb.openedAt) < b.cooldown {
			out = append(out, sc)
		}
	}
	sort.Strings(out)
	return out
}
