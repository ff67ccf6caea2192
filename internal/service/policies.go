package service

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"darksim/internal/jobs"
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
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading policy spec body: %w", err))
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("policy spec body exceeds %d bytes", maxSpecBytes))
		return
	}
	spec, err := policy.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, params, fn, err := policyCompute(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveResult(w, r, key, "policy", params, fn)
}

// policyCompute resolves a policy spec into its content-hash cache key,
// response params, and sandbox-execution closure — shared by
// POST /v1/policies and POST /v1/runs, so an async policy run dedupes
// and caches exactly like the synchronous request.
func policyCompute(spec policy.Spec) (string, map[string]string, jobs.Job, error) {
	hash, err := policy.Hash(spec)
	if err != nil {
		return "", nil, nil, err
	}
	params := map[string]string{"hash": hash}
	if spec.Name != "" {
		params["name"] = spec.Name
	}
	fn := func(ctx context.Context) ([]*report.Table, error) {
		res, err := policy.Execute(ctx, spec)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}
	return "policy:" + hash, params, fn, nil
}
