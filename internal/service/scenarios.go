package service

import (
	"context"
	"net/http"

	"darksim/internal/report"
	"darksim/internal/scenario"
)

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
	c, err := scenarioCompute(spec)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	s.serveResult(w, r, c)
}

// handleScenarioPost evaluates a user-defined spec from the request body.
// The cache key is the spec's content hash, so renamed, reordered or
// differently-spelled specs for the same chip hit the same cache entry
// and coalesce onto the same in-flight computation.
func (s *Server) handleScenarioPost(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, "spec body")
	if !ok {
		return
	}
	c, err := parseScenario(body)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	s.serveResult(w, r, c)
}

// parseScenario is the parse-and-resolve step of POST /v1/scenarios and
// of a scenario run.
func parseScenario(body []byte) (computation, error) {
	spec, err := scenario.Parse(body)
	if err != nil {
		return computation{}, err
	}
	return scenarioCompute(spec)
}

// scenarioCompute resolves a spec into its computation, keyed by its
// content hash: compile, then evaluate.
func scenarioCompute(spec scenario.Spec) (computation, error) {
	hash, err := scenario.Hash(spec)
	if err != nil {
		return computation{}, err
	}
	return specCompute("scenario", hash, spec.Name, func(ctx context.Context) ([]*report.Table, error) {
		sc, err := scenario.Compile(spec)
		if err != nil {
			return nil, err
		}
		res, err := sc.Evaluate(ctx)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}), nil
}
