package serve

import (
	"fmt"
	"net/http"

	"redhip/internal/sim"
	"redhip/internal/sweep"
)

// This file is the grid side of the one job model: POST /v1/sweeps
// turns a parameter grid (internal/sweep) into a job whose cells are
// the grid's children, and GET /v1/jobs/{id}/artifacts renders a done
// grid job's paper-figure tables. Admission, execution, status, SSE and
// cancellation are a plain job's; the grid math and the artifact tables
// stay in the pure internal/sweep package.

// maxSweepChildren caps the expanded size of one grid. A grid that
// expands past it is rejected with 400 at admission.
const maxSweepChildren = 10_000

// childSpec builds the cell spec for one grid child: a single workload
// under the grid's full scheme list, so one engine pass replays one
// materialised trace under every scheme.
func childSpec(g sweep.Grid, c sweep.Child) (Spec, error) {
	spec := Spec{
		Workloads:         []string{c.Workload},
		Schemes:           g.Schemes,
		Geometry:          c.Geometry,
		Inclusion:         g.Inclusion,
		Seed:              c.Seed,
		RefsPerCore:       c.RefsPerCore,
		WarmupRefsPerCore: g.WarmupRefsPerCore,
		Cores:             c.Cores,
		Prefetch:          g.Prefetch,
		TimeoutSeconds:    g.TimeoutSeconds,
	}
	return spec.normalize()
}

// gridWork normalises g and expands it into a grid job's work, one cell
// per child. Every cell is validated here, so an impossible grid is a
// 400 before it queues. The key hashes the normalised grid, timeout
// zeroed, behind a "grid" prefix, so it never equals a spec key.
func gridWork(g sweep.Grid) (work, error) {
	norm, err := g.Normalize()
	if err != nil {
		return work{}, err
	}
	if n := norm.Count(); n > maxSweepChildren {
		return work{}, fmt.Errorf("serve: sweep expands to %d children, cap is %d", n, maxSweepChildren)
	}
	children := norm.Expand()
	cells := make([]Spec, len(children))
	for i, c := range children {
		if cells[i], err = childSpec(norm, c); err != nil {
			return work{}, err
		}
	}
	keyed := norm
	keyed.TimeoutSeconds = 0
	return work{Key: hashKey("grid", keyed), Grid: &norm, cells: cells}, nil
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var g sweep.Grid
	if !decodeBody(w, r, &g, "invalid sweep grid") {
		return
	}
	wk, err := gridWork(g)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.submit(w, wk)
}

// handleArtifacts answers GET /v1/jobs/{id}/artifacts: a done grid
// job's paper-figure tables, aggregated from its results — JSON by
// default, the rendered text block with ?format=text (the form the
// smoke script diffs for bit-identity). 409 until the job is done; 404
// for a plain job, which has no grid to aggregate over.
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	j := s.store.Get(r.PathValue("id"))
	if j == nil || j.Grid == nil {
		HTTPError(w, http.StatusNotFound, "no such grid job")
		return
	}
	results, done := j.doneResults()
	if !done {
		HTTPError(w, http.StatusConflict,
			fmt.Sprintf("job is %s: artifacts exist only for done grid jobs", j.stateNow()))
		return
	}
	// Each cell holds one result per grid scheme, in cell order.
	children := j.Grid.Expand()
	n := len(j.Grid.Schemes)
	sets := make([][]*sim.Result, len(children))
	for i := range sets {
		sets[i] = results[i*n : (i+1)*n]
	}
	arts, err := sweep.Aggregate(*j.Grid, children, sets)
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "aggregate: "+err.Error())
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, arts.Text)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	WriteJSON(w, arts)
}
