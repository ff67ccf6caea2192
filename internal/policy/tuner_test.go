package policy

import (
	"context"
	"math"
	"reflect"
	"testing"

	"darksim/internal/scenario"
)

// TestTuneDeterministic reruns the same seeded search on two
// independently compiled environments: the full search records —
// parameter trajectories and scores — must be identical, so a cold
// service cache and a warm one serve the same frontier.
func TestTuneDeterministic(t *testing.T) {
	opt := TuneOptions{Seed: 42, Budget: 8, Sandbox: Options{Duration: 0.02}}
	var results []*TuneResult
	for i := 0; i < 2; i++ {
		env := testEnv(t, scenario.PackSymmetric)
		res, err := env.Tune(context.Background(), NewBoost(), opt)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", results[0], results[1])
	}
}

// TestTuneImproves locks in the acceptance behavior: on the symmetric
// pack the hill climb finds a boost hold band that beats the default.
func TestTuneImproves(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	res, err := env.Tune(context.Background(), NewBoost(), TuneOptions{Sandbox: Options{Duration: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Improved() {
		t.Fatalf("tuner found nothing better than defaults: %+v", res)
	}
	if res.Evals < 2 || len(res.Trace) != res.Evals {
		t.Fatalf("search record inconsistent: evals=%d trace=%d", res.Evals, len(res.Trace))
	}
	accepted := 0
	for _, s := range res.Trace {
		if s.Accepted {
			accepted++
			if s.Score != res.BestScore {
				t.Fatalf("accepted point scores %.4f, best is %.4f", s.Score, res.BestScore)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no trace point marked accepted")
	}
}

// TestTuneRespectsBudget: evaluations never exceed the budget, and a
// budget of one still returns the default point.
func TestTuneRespectsBudget(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	res, err := env.Tune(context.Background(), NewDarkGates(), TuneOptions{Budget: 1, Sandbox: Options{Duration: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 1 {
		t.Fatalf("budget 1, evals %d", res.Evals)
	}
	if res.BestScore != res.DefaultScore {
		t.Fatalf("budget 1 must keep defaults: %+v", res)
	}
}

// unsafeTunable offers boost's parameter box but runs boost-unsafe at
// every point, so every run the tuner evaluates violates the standard
// assertions.
type unsafeTunable struct{ *Boost }

func (unsafeTunable) Prepare(ctx context.Context, env *Env) (*Prepared, error) {
	return UnsafeBoost{}.Prepare(ctx, env)
}

func (u unsafeTunable) WithParams(vals map[string]float64) (Policy, error) {
	p, err := u.Boost.WithParams(vals)
	if err != nil {
		return nil, err
	}
	return unsafeTunable{p.(*Boost)}, nil
}

// TestTuneRejectsViolatingRuns: a parameterization whose run fails an
// assertion can never win. Every point of unsafeTunable fails, so the
// search must end where it started with a -Inf incumbent.
func TestTuneRejectsViolatingRuns(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	res, err := env.Tune(context.Background(), unsafeTunable{NewBoost()}, TuneOptions{
		Budget:  6,
		Sandbox: Options{Duration: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.BestScore, -1) {
		t.Fatalf("violating runs scored %v, want -Inf", res.BestScore)
	}
	if res.Improved() {
		t.Fatal("a violating run improved on a violating default")
	}
}

func TestTuneErrors(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	if _, err := env.Tune(context.Background(), NewBoost(), TuneOptions{Budget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := env.Tune(ctx, NewBoost(), TuneOptions{Sandbox: Options{Duration: 0.01}}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
