package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"darksim/internal/apps"
	"darksim/internal/boost"
	"darksim/internal/core"
	"darksim/internal/experiments"
	"darksim/internal/floorplan"
	"darksim/internal/mapping"
	"darksim/internal/policy"
	"darksim/internal/scenario"
	"darksim/internal/sim"
	"darksim/internal/tech"
	"darksim/internal/thermal"
	"darksim/internal/tsp"
)

// The probes call each layer's public functions directly, one span per
// call, to give the per-layer metrics the workloads cannot expose.

func solverAttrs(before, after thermal.SolverStats) map[string]float64 {
	return map[string]float64{
		"solves":        float64(after.Solves - before.Solves),
		"cg_iterations": float64(after.CGIterations - before.CGIterations),
	}
}

// probePlatforms builds platforms no workload uses (the workloads' core
// counts are multiples of 4) on the shared cache, and their influence
// matrices, both cold.
func probePlatforms(ctx context.Context, tr *tracer, parent int) (buildMS, influenceMS []float64, err error) {
	for _, cores := range []int{150, 234, 306, 374, 442} {
		id := tr.begin(parent, "experiments.PlatformFor")
		t0 := time.Now()
		p, err := experiments.PlatformFor(tech.Node16, cores)
		if err != nil {
			return nil, nil, err
		}
		buildMS = append(buildMS, msSince(t0))
		tr.end(id, map[string]float64{"cores": float64(cores)})
		before := p.Thermal.SolverStats()
		id = tr.begin(parent, "thermal.InfluenceMatrix")
		t0 = time.Now()
		if _, err := p.Thermal.InfluenceMatrix(ctx); err != nil {
			return nil, nil, err
		}
		influenceMS = append(influenceMS, msSince(t0))
		tr.end(id, solverAttrs(before, p.Thermal.SolverStats()))
	}
	return buildMS, influenceMS, nil
}

// tspProbeSide matches internal/bench's TSPWorstCaseWarm platform
// (32×32 = 1024 cores, sparse solver), so its samples compare directly
// with the committed BENCH_PR*.json entries.
const tspProbeSide = 32

func tspProbeModel() (*thermal.Model, error) {
	fp, err := floorplan.NewGrid(tspProbeSide, tspProbeSide, 5.1)
	if err != nil {
		return nil, err
	}
	cfg := thermal.DefaultConfig(fp.DieW, fp.DieH, tspProbeSide, tspProbeSide)
	cfg.Solver = thermal.SolverSparse
	return thermal.NewModel(fp, cfg)
}

// probeTSPWarm repeats TSPWorstCaseWarm's operation: with the influence
// cache warm, build the model, a calculator, and the worst case with
// every core active.
func probeTSPWarm(ctx context.Context, tr *tracer, parent, reps int) ([]float64, error) {
	id := tr.begin(parent, "thermal.InfluenceMatrix")
	warm, err := tspProbeModel()
	if err != nil {
		return nil, err
	}
	if _, err := warm.InfluenceMatrix(ctx); err != nil {
		return nil, err
	}
	tr.end(id, solverAttrs(thermal.SolverStats{}, warm.SolverStats()))
	cores := tspProbeSide * tspProbeSide
	var samples []float64
	for range reps {
		op := tr.begin(parent, "tsp.warm_op")
		t0 := time.Now()
		id := tr.begin(op, "thermal.NewModel")
		m, err := tspProbeModel()
		if err != nil {
			return nil, err
		}
		tr.end(id, nil)
		id = tr.begin(op, "tsp.New")
		calc, err := tsp.New(m, 80)
		if err != nil {
			return nil, err
		}
		tr.end(id, nil)
		id = tr.begin(op, "tsp.WorstCase")
		if _, _, err := calc.WorstCase(ctx, cores); err != nil {
			return nil, err
		}
		tr.end(id, solverAttrs(thermal.SolverStats{}, m.SolverStats()))
		samples = append(samples, msSince(t0))
		tr.end(op, nil)
	}
	return samples, nil
}

// probeScenarios compiles and evaluates specs drawn from the queries
// workload's generator.
func probeScenarios(ctx context.Context, tr *tracer, parent int, rng *rand.Rand) (compileMS, evalMS []float64, err error) {
	gen := newQueryGen(rng)
	for i := range 10 {
		spec := gen.spec(i%2 == 0)
		id := tr.begin(parent, "scenario.Compile")
		t0 := time.Now()
		sc, err := scenario.Compile(spec)
		if err != nil {
			return nil, nil, err
		}
		compileMS = append(compileMS, msSince(t0))
		tr.end(id, nil)
		id = tr.begin(parent, "scenario.Evaluate")
		t0 = time.Now()
		if _, err := sc.Evaluate(ctx); err != nil {
			return nil, nil, err
		}
		evalMS = append(evalMS, msSince(t0))
		tr.end(id, nil)
	}
	return compileMS, evalMS, nil
}

// transientProbeSide matches internal/bench's small transient platform
// (10×10 cores), where both solver paths and the macro kernel run.
const transientProbeSide = 10

func transientProbe(k thermal.SolverKind) (*thermal.Transient, []float64, error) {
	fp, err := floorplan.NewGrid(transientProbeSide, transientProbeSide, 5.1)
	if err != nil {
		return nil, nil, err
	}
	cfg := thermal.DefaultConfig(fp.DieW, fp.DieH, transientProbeSide, transientProbeSide)
	cfg.Solver = k
	m, err := thermal.NewModel(fp, cfg)
	if err != nil {
		return nil, nil, err
	}
	tr, err := m.NewTransient(1e-3)
	if err != nil {
		return nil, nil, err
	}
	tr.SetUniform(45)
	p := make([]float64, transientProbeSide*transientProbeSide)
	for i := range p {
		p[i] = 2
	}
	// One untimed step builds the factorization.
	_, err = tr.Step(p)
	return tr, p, err
}

// probeTransient times exact steps on both solver paths (µs per step,
// one sample per 200-step chunk) and macro steps collapsing 1000 quiet
// periods (µs per call).
func probeTransient(tr *tracer, parent int) (dense, sparse, macro []float64, err error) {
	const chunk = 200
	for _, c := range []struct {
		kind thermal.SolverKind
		name string
		out  *[]float64
	}{{thermal.SolverDense, "dense", &dense}, {thermal.SolverSparse, "sparse", &sparse}} {
		id := tr.begin(parent, "thermal.NewModel")
		t, p, err := transientProbe(c.kind)
		if err != nil {
			return nil, nil, nil, err
		}
		tr.end(id, nil)
		for range 5 {
			id := tr.begin(parent, "thermal.Transient.Step."+c.name)
			t0 := time.Now()
			for range chunk {
				if _, err := t.Step(p); err != nil {
					return nil, nil, nil, err
				}
			}
			*c.out = append(*c.out, msSince(t0)*1000/chunk)
			tr.end(id, map[string]float64{"steps": chunk})
		}
	}
	id := tr.begin(parent, "thermal.NewModel")
	t, p, err := transientProbe(thermal.SolverDense)
	if err != nil {
		return nil, nil, nil, err
	}
	tr.end(id, nil)
	if !t.MacroSupported() {
		return nil, nil, nil, fmt.Errorf("macro stepping unsupported on the probe platform")
	}
	id = tr.begin(parent, "thermal.Transient.MacroStep.build")
	if _, err := t.MacroStep(p, 1000); err != nil { // builds the ladder
		return nil, nil, nil, err
	}
	tr.end(id, nil)
	for range 9 {
		t.SetUniform(45)
		id := tr.begin(parent, "thermal.Transient.MacroStep")
		t0 := time.Now()
		if _, err := t.MacroStep(p, 1000); err != nil {
			return nil, nil, nil, err
		}
		macro = append(macro, msSince(t0)*1000)
		tr.end(id, map[string]float64{"periods": 1000})
	}
	return dense, sparse, macro, nil
}

// The sim and policy probes simulate probePeriods 1 ms control periods.
const (
	probePeriods     = 500
	simProbeDuration = probePeriods * 1e-3
)

// instancePlan places 8-thread instances periphery-first, as the
// transient figures do.
func instancePlan(p *core.Platform, app string, instances int) (*mapping.Plan, error) {
	a, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	cores, err := mapping.PeripheryFirst(p.Floorplan, instances*apps.MaxThreadsPerInstance)
	if err != nil {
		return nil, err
	}
	plan := &mapping.Plan{NumCores: p.NumCores()}
	for i := range instances {
		n := apps.MaxThreadsPerInstance
		plan.Placements = append(plan.Placements, mapping.Placement{App: a, Cores: cores[i*n : (i+1)*n], FGHz: 3.0, Threads: n})
	}
	return plan, plan.Validate()
}

// probeSim runs the transient figures' arms on their platforms: each
// plan's constant baseline through sim.Run (macro-stepping allowed), and
// the boosting arms of a sweep as one sim.RunBatch (fig11's single
// boosting arm as a sim.Run). It returns per-call host times and the
// simulated control periods (summed over lanes) per host second.
func probeSim(ctx context.Context, tr *tracer, parent int) (runMS, batchMS []float64, periodsPerS float64, err error) {
	cases := []struct {
		fig       string
		node      tech.Node
		cores     int
		apps      []string
		instances []int
	}{
		{"fig11", tech.Node16, 100, []string{"x264"}, []int{12}},
		{"fig12", tech.Node16, 100, []string{"x264"}, []int{2, 6, 10}},
		{"fig13", tech.Node11, 198, []string{"x264", "swaptions"}, []int{12, 24}},
	}
	periods := probePeriods
	totalPeriods, totalMS := 0, 0.0
	for _, c := range cases {
		p, err := experiments.PlatformFor(c.node, c.cores)
		if err != nil {
			return nil, nil, 0, err
		}
		ladder := p.BoostLadder
		opts := sim.Options{Duration: simProbeDuration, ControlPeriod: 1e-3, StartSteady: true, StepMode: sim.StepAuto, RecordPoints: 64}
		var lanes []sim.BatchRun
		for _, app := range c.apps {
			for _, inst := range c.instances {
				id := tr.begin(parent, "mapping.PeripheryFirst")
				plan, err := instancePlan(p, app, inst)
				if err != nil {
					return nil, nil, 0, err
				}
				tr.end(id, nil)
				id = tr.begin(parent, "boost.FindConstantLevel")
				level, err := boost.FindConstantLevel(p, plan, ladder, p.TDTM)
				if err != nil {
					return nil, nil, 0, err
				}
				tr.end(id, nil)
				id = tr.begin(parent, "sim.Run")
				t0 := time.Now()
				if _, err := sim.Run(p, plan, boost.Constant{Level: level}, ladder, opts); err != nil {
					return nil, nil, 0, err
				}
				d := msSince(t0)
				tr.end(id, map[string]float64{"periods": float64(periods)})
				runMS = append(runMS, d)
				totalMS += d
				totalPeriods += periods
				ctrl, err := boost.NewClosed(p.TDTM, level, len(ladder.Points)-1)
				if err != nil {
					return nil, nil, 0, err
				}
				lanes = append(lanes, sim.BatchRun{Plan: plan, Ctrl: ctrl})
			}
		}
		name := "sim.RunBatch"
		if len(lanes) == 1 {
			name = "sim.Run"
		}
		id := tr.begin(parent, name)
		t0 := time.Now()
		if len(lanes) == 1 {
			_, err = sim.Run(p, lanes[0].Plan, lanes[0].Ctrl, ladder, opts)
		} else {
			_, err = sim.RunBatch(ctx, p, lanes, ladder, opts)
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s boosting arms: %w", c.fig, err)
		}
		d := msSince(t0)
		tr.end(id, map[string]float64{"lanes": float64(len(lanes)), "periods": float64(periods * len(lanes))})
		if len(lanes) == 1 {
			runMS = append(runMS, d)
		} else {
			batchMS = append(batchMS, d)
		}
		totalMS += d
		totalPeriods += periods * len(lanes)
	}
	return runMS, batchMS, float64(totalPeriods) / (totalMS / 1000), nil
}

// policyProbe is what the policy probe measured.
type policyProbe struct {
	raceMS, tuneMS                []float64
	periodsPerS                   float64
	violations, controlViolations int
	failures                      []string
}

// probePolicy races every safe policy plus the negative control on each
// pack scenario (Env.RunAll), then tunes boost there (Env.Tune).
func probePolicy(ctx context.Context, tr *tracer, parent int) (*policyProbe, error) {
	res := &policyProbe{}
	lanePeriods, raceTotal := 0, 0.0
	for _, sc := range sandboxScenarios()[:3] {
		spec, err := scenario.PackByName(sc.pack)
		if err != nil {
			return nil, err
		}
		id := tr.begin(parent, "scenario.Compile")
		compiled, err := scenario.Compile(spec)
		if err != nil {
			return nil, err
		}
		tr.end(id, nil)
		id = tr.begin(parent, "policy.NewEnv")
		env, err := policy.NewEnv(compiled)
		if err != nil {
			return nil, err
		}
		tr.end(id, nil)
		var pols []policy.Policy
		for _, n := range append(append([]string(nil), safePolicies...), negativeControl) {
			if n == "patterned" && sc.noPatterned {
				continue
			}
			pol, err := policy.ByName(n, nil)
			if err != nil {
				return nil, err
			}
			pols = append(pols, pol)
		}
		opt := policy.Options{Duration: simProbeDuration}
		id = tr.begin(parent, "policy.Env.RunAll")
		t0 := time.Now()
		outs, err := env.RunAll(ctx, pols, opt, nil)
		if err != nil {
			return nil, err
		}
		d := msSince(t0)
		tr.end(id, map[string]float64{"lanes": float64(len(pols))})
		res.raceMS = append(res.raceMS, d)
		raceTotal += d
		lanePeriods += len(pols) * probePeriods
		for _, o := range outs {
			res.violations += len(o.Violations)
			switch {
			case o.Policy == negativeControl:
				res.controlViolations += len(o.Violations)
				if o.Passed() {
					res.failures = append(res.failures, fmt.Sprintf("%s: negative control not caught", sc.pack))
				}
			case !o.Passed():
				res.failures = append(res.failures, fmt.Sprintf("%s: %s failed (%d violations) %s", sc.pack, o.Policy, len(o.Violations), o.Err))
			}
		}
		target, err := policy.ByName("boost", nil)
		if err != nil {
			return nil, err
		}
		id = tr.begin(parent, "policy.Env.Tune")
		t0 = time.Now()
		if _, err := env.Tune(ctx, target.(policy.Tunable), policy.TuneOptions{Seed: 1, Budget: 4, Sandbox: opt}); err != nil {
			return nil, err
		}
		res.tuneMS = append(res.tuneMS, msSince(t0))
		tr.end(id, map[string]float64{"budget": 4})
	}
	res.periodsPerS = float64(lanePeriods) / (raceTotal / 1000)
	return res, nil
}
