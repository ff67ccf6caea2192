package service

import (
	"context"
	"net/http"

	"darksim/internal/policy"
	"darksim/internal/report"
)

// handlePolicyPost races a policy-sandbox spec from the request body.
// Like POST /v1/scenarios, the cache key is the spec's content hash, so
// renamed or reordered specs for the same evaluation hit the same cache
// entry and coalesce onto the same in-flight sandbox run. Tuning runs
// ride the same pipeline; long tunes are better submitted through
// POST /v1/runs with a "policy" body, which streams frontier fragments.
func (s *Server) handlePolicyPost(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, "policy spec body")
	if !ok {
		return
	}
	c, err := parsePolicy(body)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	s.serveResult(w, r, c)
}

// parsePolicy is the parse-and-resolve step of POST /v1/policies and of
// a policy run: the sandbox spec's computation, keyed by its content
// hash.
func parsePolicy(body []byte) (computation, error) {
	spec, err := policy.Parse(body)
	if err != nil {
		return computation{}, err
	}
	hash, err := policy.Hash(spec)
	if err != nil {
		return computation{}, err
	}
	return specCompute("policy", hash, spec.Name, func(ctx context.Context) ([]*report.Table, error) {
		res, err := policy.Execute(ctx, spec)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}), nil
}
