package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Options configure a load run's execution layer.
type Options struct {
	// BaseURL is the redhip-serve instance, e.g. "http://localhost:8080".
	BaseURL string
	// Client is the HTTP client (default: 30s timeout).
	Client *http.Client
}

// CohortReport is one cohort's accounting: the outcome split and the
// client-observed submission latency distribution.
type CohortReport struct {
	Name string `json:"name"`
	Sent int    `json:"sent"`
	// Accepted counts 202s; Deduped is the subset whose submission
	// attached to an existing job instead of creating one.
	Accepted int `json:"accepted"`
	Deduped  int `json:"deduped"`
	// Rejected429 is queue-full backpressure; Rejected503 is shedding
	// (memory, shutdown). Both are the server working as
	// designed under overload — distinct from OtherHTTP and
	// NetworkErrors, which are not.
	Rejected429   int `json:"rejected_429"`
	Rejected503   int `json:"rejected_503"`
	OtherHTTP     int `json:"other_http"`
	ServerErrors  int `json:"server_5xx"`
	NetworkErrors int `json:"network_errors"`
	// Latency percentiles over all finished requests, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// Replicas counts responses by the X-RedHiP-Replica header — set
	// when the target is a redhip-router, absent against a bare
	// replica. The failover drill asserts traffic spread across
	// survivors with it.
	Replicas map[string]int `json:"replicas,omitempty"`
}

// Report is redhip-load's machine-readable output.
type Report struct {
	Profile     string         `json:"profile,omitempty"`
	Seed        uint64         `json:"seed"`
	Arrivals    int            `json:"arrivals"`
	WallSeconds float64        `json:"wall_seconds"`
	Cohorts     []CohortReport `json:"cohorts"`
	Total       CohortReport   `json:"total"`
}

// cohortAcc accumulates one cohort's outcomes during the run.
type cohortAcc struct {
	mu        sync.Mutex
	rep       CohortReport //redhip:guardedby mu
	latencies []float64    //redhip:guardedby mu // milliseconds
}

// record folds one finished request into the accumulator.
func (a *cohortAcc) record(code int, deduped bool, netErr bool, ms float64, replica string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Sent++
	if replica != "" {
		if a.rep.Replicas == nil {
			a.rep.Replicas = make(map[string]int)
		}
		a.rep.Replicas[replica]++
	}
	switch {
	case netErr:
		a.rep.NetworkErrors++
		return // no latency sample: the request never completed
	case code == http.StatusAccepted:
		a.rep.Accepted++
		if deduped {
			a.rep.Deduped++
		}
	case code == http.StatusTooManyRequests:
		a.rep.Rejected429++
	case code == http.StatusServiceUnavailable:
		a.rep.Rejected503++
	case code >= 500:
		a.rep.ServerErrors++
	default:
		a.rep.OtherHTTP++
	}
	a.latencies = append(a.latencies, ms)
}

// report finalises the accumulator into percentiles.
func (a *cohortAcc) report() CohortReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := a.rep
	if len(a.latencies) > 0 {
		ls := make([]float64, len(a.latencies))
		copy(ls, a.latencies)
		sort.Float64s(ls)
		rep.P50Ms = percentile(ls, 0.50)
		rep.P95Ms = percentile(ls, 0.95)
		rep.P99Ms = percentile(ls, 0.99)
		rep.MaxMs = ls[len(ls)-1]
	}
	return rep
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Run executes a profile open-loop against a server: every scheduled
// arrival fires at its offset regardless of how previous requests are
// faring — lagging responses pile up concurrency instead of slowing
// the arrival process, which is what makes the generator an honest
// overload probe. Returns the per-cohort report; ctx cancellation
// stops scheduling new arrivals and drains in-flight ones.
func Run(ctx context.Context, p Profile, opts Options) (*Report, error) {
	norm, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	schedule, err := BuildSchedule(norm)
	if err != nil {
		return nil, err
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	url := opts.BaseURL + "/v1/jobs"

	accs := make([]*cohortAcc, len(norm.Cohorts))
	for i, c := range norm.Cohorts {
		accs[i] = &cohortAcc{rep: CohortReport{Name: c.Name}}
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var wg sync.WaitGroup
scheduling:
	for _, a := range schedule {
		d := time.Until(start.Add(a.At))
		if d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break scheduling
			}
		} else if ctx.Err() != nil {
			break scheduling
		}
		wg.Add(1)
		go func(spec json.RawMessage, acc *cohortAcc) {
			defer wg.Done()
			submit(ctx, client, url, spec, acc)
		}(norm.Cohorts[a.Cohort].Spec, accs[a.Cohort])
	}
	wg.Wait()

	rep := &Report{
		Profile:     norm.Name,
		Seed:        norm.Seed,
		Arrivals:    len(schedule),
		WallSeconds: time.Since(start).Seconds(),
	}
	var totalLat []float64
	for _, a := range accs {
		cr := a.report()
		rep.Cohorts = append(rep.Cohorts, cr)
		rep.Total.Sent += cr.Sent
		rep.Total.Accepted += cr.Accepted
		rep.Total.Deduped += cr.Deduped
		rep.Total.Rejected429 += cr.Rejected429
		rep.Total.Rejected503 += cr.Rejected503
		rep.Total.OtherHTTP += cr.OtherHTTP
		rep.Total.ServerErrors += cr.ServerErrors
		rep.Total.NetworkErrors += cr.NetworkErrors
		for replica, n := range cr.Replicas {
			if rep.Total.Replicas == nil {
				rep.Total.Replicas = make(map[string]int)
			}
			rep.Total.Replicas[replica] += n
		}
		a.mu.Lock()
		totalLat = append(totalLat, a.latencies...)
		a.mu.Unlock()
	}
	rep.Total.Name = "total"
	if len(totalLat) > 0 {
		sort.Float64s(totalLat)
		rep.Total.P50Ms = percentile(totalLat, 0.50)
		rep.Total.P95Ms = percentile(totalLat, 0.95)
		rep.Total.P99Ms = percentile(totalLat, 0.99)
		rep.Total.MaxMs = totalLat[len(totalLat)-1]
	}
	return rep, nil
}

// submit POSTs one cohort template and records the outcome.
func submit(ctx context.Context, client *http.Client, url string, spec json.RawMessage, acc *cohortAcc) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(spec))
	if err != nil {
		acc.record(0, false, true, 0, "")
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		acc.record(0, false, true, ms, "")
		return
	}
	defer resp.Body.Close()
	var body struct {
		Deduped bool `json:"deduped"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body) // non-202 bodies lack the field; zero value is right
	acc.record(resp.StatusCode, body.Deduped, false, ms, resp.Header.Get("X-RedHiP-Replica"))
}

// WriteReport renders the report as indented JSON.
func WriteReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("loadgen: write report: %w", err)
	}
	return nil
}
