package service

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"darksim/internal/jobs"
	"darksim/internal/report"
	"darksim/internal/scenario"
)

// maxSpecBytes bounds a POST /v1/scenarios body. Specs are small JSON
// documents; a megabyte already fits thousands of workload entries.
const maxSpecBytes = 1 << 20

// scenarioInfo is one row of the GET /v1/scenarios pack listing.
type scenarioInfo struct {
	Name   string  `json:"name"`
	NodeNM int     `json:"node_nm"`
	Cores  int     `json:"cores"`
	TDPW   float64 `json:"tdp_w"`
	Hash   string  `json:"hash"`
}

// handleScenarioList lists the built-in scenario pack.
func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	infos := make([]scenarioInfo, 0, len(scenario.Pack()))
	for _, spec := range scenario.Pack() {
		h, err := scenario.Hash(spec)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		infos = append(infos, scenarioInfo{
			Name:   spec.Name,
			NodeNM: spec.NodeNM,
			Cores:  spec.TotalCores(),
			TDPW:   spec.TDPW,
			Hash:   h,
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleScenarioByName compiles and evaluates one pack scenario.
func (s *Server) handleScenarioByName(w http.ResponseWriter, r *http.Request) {
	if err := allowParams(r); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := scenario.PackByName(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	s.serveScenario(w, r, spec)
}

// handleScenarioPost evaluates a user-defined spec from the request body.
// The cache key is the spec's content hash, so renamed, reordered or
// differently-spelled specs for the same chip hit the same cache entry
// and coalesce onto the same in-flight computation.
func (s *Server) handleScenarioPost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading spec body: %w", err))
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec body exceeds %d bytes", maxSpecBytes))
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveScenario(w, r, spec)
}

// serveScenario validates eagerly (cheap, 400s before any compute slot is
// taken) and runs compile + evaluate through the do pipeline.
func (s *Server) serveScenario(w http.ResponseWriter, r *http.Request, spec scenario.Spec) {
	key, params, fn, err := scenarioCompute(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveResult(w, r, key, "scenario", params, fn)
}

// scenarioCompute resolves a spec into its content-hash cache key,
// response params, and compile+evaluate closure — shared by the
// synchronous scenario handlers and POST /v1/runs, so an async scenario
// run dedupes and caches exactly like the synchronous request.
func scenarioCompute(spec scenario.Spec) (string, map[string]string, jobs.Job, error) {
	hash, err := scenario.Hash(spec)
	if err != nil {
		return "", nil, nil, err
	}
	params := map[string]string{"hash": hash}
	if spec.Name != "" {
		params["name"] = spec.Name
	}
	fn := func(ctx context.Context) ([]*report.Table, error) {
		sc, err := scenario.Compile(spec)
		if err != nil {
			return nil, err
		}
		res, err := sc.Evaluate(ctx)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}
	return "scenario:" + hash, params, fn, nil
}
