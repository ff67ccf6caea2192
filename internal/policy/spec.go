package policy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"darksim/internal/progress"
	"darksim/internal/report"
	"darksim/internal/scenario"
	"darksim/internal/sim"
)

// Spec is the declarative form of a sandbox run: a workload (an inline
// scenario spec or a named pack scenario), the policies to race, and an
// optional tuning target. Like scenario specs, identity is content: the
// normalized form hashes canonically so the service cache, singleflight
// and the job store all dedupe on meaning.

// PolicyConfig selects one registered policy, optionally reparameterized.
type PolicyConfig struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// Spec declares one head-to-head sandbox evaluation.
type Spec struct {
	// Name labels output; it does not affect the content hash.
	Name string `json:"name,omitempty"`
	// Exactly one of Pack (a scenario-pack scenario name) and Scenario
	// (an inline scenario spec) selects the workload. Normalize resolves
	// Pack into Scenario.
	Pack     string         `json:"pack,omitempty"`
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Policies are raced head-to-head (default constant, boost, dsrem).
	Policies []PolicyConfig `json:"policies,omitempty"`
	// DurationS is the simulated run length in seconds (default 0.5),
	// at least one sim.ControlPeriodS and at most 60.
	DurationS float64 `json:"duration_s,omitempty"`
	// Tune names one of Policies to hill-climb after the head-to-head;
	// the tuned variant is raced as an extra entry.
	Tune string `json:"tune,omitempty"`
	// Seed and Budget configure the tuner (defaults 1 and 12).
	Seed   int64 `json:"seed,omitempty"`
	Budget int   `json:"budget,omitempty"`
}

// Parse decodes a JSON policy spec strictly: unknown fields and trailing
// data are validation errors.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrPolicy, err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("%w: trailing data after spec object", ErrPolicy)
	}
	return s, nil
}

// Normalize validates a spec and returns its canonical form: the pack
// reference resolved to an inline normalized scenario, defaults made
// explicit, and every policy reference checked against the registry.
func Normalize(s Spec) (Spec, error) {
	switch {
	case s.Pack != "" && s.Scenario != nil:
		return Spec{}, fmt.Errorf("%w: spec sets both pack and scenario", ErrPolicy)
	case s.Pack == "" && s.Scenario == nil:
		return Spec{}, fmt.Errorf("%w: spec needs a pack name or an inline scenario", ErrPolicy)
	}
	if s.Pack != "" {
		ss, err := scenario.PackByName(s.Pack)
		if err != nil {
			return Spec{}, fmt.Errorf("%w: %v", ErrPolicy, err)
		}
		s.Scenario = &ss
		s.Pack = ""
	}
	ns, err := scenario.Normalize(*s.Scenario)
	if err != nil {
		return Spec{}, err
	}
	s.Scenario = &ns

	if len(s.Policies) == 0 {
		s.Policies = []PolicyConfig{{Name: "constant"}, {Name: "boost"}, {Name: "dsrem"}}
	}
	seen := make(map[string]bool, len(s.Policies))
	for _, pc := range s.Policies {
		if _, err := ByName(pc.Name, pc.Params); err != nil {
			return Spec{}, err
		}
		if seen[pc.Name] {
			return Spec{}, fmt.Errorf("%w: policy %q listed twice", ErrPolicy, pc.Name)
		}
		seen[pc.Name] = true
	}

	if s.DurationS == 0 {
		s.DurationS = 0.5
	}
	// A run shorter than one control period steps nothing; the race
	// refuses it too, but only after it has taken a compute slot.
	if !(s.DurationS >= sim.ControlPeriodS) || s.DurationS > 60 {
		return Spec{}, fmt.Errorf("%w: duration %g s outside [%g, 60]", ErrPolicy, s.DurationS, sim.ControlPeriodS)
	}
	if s.Tune != "" {
		if !seen[s.Tune] {
			return Spec{}, fmt.Errorf("%w: tune target %q is not among the spec's policies", ErrPolicy, s.Tune)
		}
		pol, err := ByName(s.Tune, nil)
		if err != nil {
			return Spec{}, err
		}
		if _, ok := pol.(Tunable); !ok {
			return Spec{}, fmt.Errorf("%w: policy %q is not tunable", ErrPolicy, s.Tune)
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		if s.Budget == 0 {
			s.Budget = 12
		}
		if s.Budget < 1 || s.Budget > 200 {
			return Spec{}, fmt.Errorf("%w: tune budget %d outside [1, 200]", ErrPolicy, s.Budget)
		}
	} else {
		// Tuner knobs are meaningless without a target; zero them so
		// they cannot split the content hash.
		s.Seed = 0
		s.Budget = 0
	}
	return s, nil
}

// Hash returns the content hash of a spec: SHA-256 over the canonical
// JSON encoding of its normalized form, display name excluded.
func Hash(s Spec) (string, error) {
	ns, err := Normalize(s)
	if err != nil {
		return "", err
	}
	return hashNormalized(ns), nil
}

// hashNormalized hashes an already-normalized spec. Display names — the
// spec's own and the embedded scenario's — are excluded: identity is
// content.
func hashNormalized(ns Spec) string {
	ns.Name = ""
	if ns.Scenario != nil {
		sc := *ns.Scenario
		sc.Name = ""
		ns.Scenario = &sc
	}
	data, err := json.Marshal(ns)
	if err != nil {
		// Spec contains only plain data types; Marshal cannot fail.
		panic(fmt.Sprintf("policy: marshal normalized spec: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// RunResult is a spec execution: the normalized spec, its hash, the
// head-to-head outcomes (tuned variant last when tuning ran), and the
// tuning record.
type RunResult struct {
	Spec     Spec        `json:"spec"`
	Hash     string      `json:"hash"`
	Outcomes []*Outcome  `json:"outcomes"`
	Tuning   *TuneResult `json:"tuning,omitempty"`
}

// Execute runs a policy spec end to end: normalize, compile the
// scenario, race the policies on the runner pool, then tune the
// requested target and race its winner. Each finished policy emits a
// one-row frontier fragment through the context's progress sink.
func Execute(ctx context.Context, spec Spec) (*RunResult, error) {
	ns, err := Normalize(spec)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Compile(*ns.Scenario)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(sc)
	if err != nil {
		return nil, err
	}

	pols := make([]Policy, len(ns.Policies))
	for i, pc := range ns.Policies {
		if pols[i], err = ByName(pc.Name, pc.Params); err != nil {
			return nil, err
		}
	}

	opt := Options{Duration: ns.DurationS}
	total := len(pols)
	if ns.Tune != "" {
		total += ns.Budget + 1
	}
	done := 0
	emitting := progress.Enabled(ctx)
	emit := func(o *Outcome) {
		done++
		if !emitting {
			return
		}
		frag := Frontier(fmt.Sprintf("policy %s", o.Policy), []*Outcome{o})
		progress.Emit(ctx, progress.Point{Table: frag, Done: done, Total: total})
	}
	outs, err := env.RunAll(ctx, pols, opt, emit)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Spec: ns, Hash: hashNormalized(ns), Outcomes: outs}

	if ns.Tune != "" {
		target, err := ByName(ns.Tune, paramsFor(ns, ns.Tune))
		if err != nil {
			return nil, err
		}
		tr, err := env.Tune(ctx, target.(Tunable), TuneOptions{
			Seed: ns.Seed, Budget: ns.Budget, Sandbox: opt,
		})
		if err != nil {
			return nil, err
		}
		done += tr.Evals
		res.Tuning = tr
		tuned, err := tr.best(target.(Tunable))
		if err != nil {
			return nil, err
		}
		out, err := env.Run(ctx, tuned, opt)
		if err != nil {
			return nil, err
		}
		out.Policy += " (tuned)"
		out.Info = "tuned: " + sortedParams(paramMap(tr.BestParams))
		emit(out)
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}

// paramsFor returns the configured params of the named policy in the
// spec.
func paramsFor(ns Spec, name string) map[string]float64 {
	for _, pc := range ns.Policies {
		if pc.Name == name {
			return pc.Params
		}
	}
	return nil
}

// Tables renders the run: the frontier, the tuning record, and any
// assertion violations.
func (r *RunResult) Tables() []*report.Table {
	title := "Policy frontier"
	if r.Spec.Scenario != nil && r.Spec.Scenario.Name != "" {
		title += ": " + r.Spec.Scenario.Name
	}
	front := Frontier(title, r.Outcomes)
	front.AddNote("spec %s, %g s simulated per policy", r.Hash[:12], r.Spec.DurationS)
	tables := []*report.Table{front}

	if r.Tuning != nil {
		t := &report.Table{
			Title:   fmt.Sprintf("Tuning %s (hill climb, seed %d)", r.Tuning.Policy, r.Spec.Seed),
			Columns: []string{"variant", "params", "score [GIPS]"},
		}
		t.AddRow("default", sortedParams(paramMap(r.Tuning.DefaultParams)),
			fmt.Sprintf("%.2f", r.Tuning.DefaultScore))
		t.AddRow("best", sortedParams(paramMap(r.Tuning.BestParams)),
			fmt.Sprintf("%.2f", r.Tuning.BestScore))
		if r.Tuning.Improved() {
			t.AddNote("tuning improved %s by %.2f GIPS (%.1f%%) over defaults in %d evaluations",
				r.Tuning.Policy, r.Tuning.BestScore-r.Tuning.DefaultScore,
				100*(r.Tuning.BestScore-r.Tuning.DefaultScore)/r.Tuning.DefaultScore,
				r.Tuning.Evals)
		} else {
			t.AddNote("defaults already optimal on this grid (%d evaluations)", r.Tuning.Evals)
		}
		tables = append(tables, t)
	}

	violations := 0
	for _, o := range r.Outcomes {
		violations += len(o.Violations)
	}
	if violations > 0 {
		tables = append(tables, ViolationTable(r.Outcomes))
	}
	return tables
}

// Violated reports whether any outcome failed an assertion or errored.
func (r *RunResult) Violated() bool {
	for _, o := range r.Outcomes {
		if !o.Passed() {
			return true
		}
	}
	return false
}
