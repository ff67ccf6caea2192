package policy

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"darksim/internal/scenario"
)

// TestHeadToHead races the default trio plus the negative control on a
// pack scenario: the safe policies must pass every standard assertion
// and boost-unsafe must be caught with the violating step named.
func TestHeadToHead(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	pols := []Policy{NewConstant(), NewBoost(), NewDsRem(), NewUnsafeBoost()}
	outs, err := env.RunAll(context.Background(), pols, Options{Duration: 0.05}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(pols) {
		t.Fatalf("%d outcomes for %d policies", len(outs), len(pols))
	}
	for _, o := range outs[:3] {
		if !o.Passed() {
			t.Fatalf("safe policy %s failed: err=%q violations=%v", o.Policy, o.Err, o.Violations)
		}
		if o.AvgGIPS <= 0 || o.EnergyJ <= 0 || o.MaxTempC <= 0 {
			t.Fatalf("%s: degenerate metrics %+v", o.Policy, o)
		}
	}
	unsafe := outs[3]
	if unsafe.Passed() {
		t.Fatal("boost-unsafe passed the assertions: the negative control is broken")
	}
	found := false
	for _, v := range unsafe.Violations {
		if v.Assertion == "never-exceed-tdtm" {
			found = true
			if v.Step <= 0 || v.Detail == "" {
				t.Fatalf("violation lacks step context: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("boost-unsafe not caught by never-exceed-tdtm: %v", unsafe.Violations)
	}

	front := Frontier("t", outs)
	var buf bytes.Buffer
	if err := front.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAIL") || !strings.Contains(buf.String(), "pass") {
		t.Fatalf("frontier lacks verdicts:\n%s", buf.String())
	}
	buf.Reset()
	if err := ViolationTable(outs).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "never-exceed-tdtm") {
		t.Fatalf("violation table lacks the caught assertion:\n%s", buf.String())
	}
}

// TestRunAllConcurrent runs two head-to-head sets on one shared
// environment at the same time — the TSP calculator, scenario and
// thermal factory are shared state; the race detector in `make check`
// patrols this test.
func TestRunAllConcurrent(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	opt := Options{Duration: 0.02}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs, err := env.RunAll(context.Background(),
				[]Policy{NewConstant(), NewBoost(), NewDarkGates()}, opt, nil)
			if err == nil {
				for _, o := range outs {
					if o.Err != "" {
						err = context.DeadlineExceeded // any sentinel: fail below
					}
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
}

// TestRunAllCancel cancels a head-to-head mid-run: the call must return
// the context error promptly (the pack checks the context every control
// period) and leave the environment reusable.
func TestRunAllCancel(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pols := []Policy{NewConstant(), NewBoost(), NewDsRem(), NewDarkGates()}
	// The simulated horizon is orders of magnitude longer than the cancel
	// delay could ever let finish, so cancellation always lands mid-run.
	time.AfterFunc(50*time.Millisecond, cancel)
	_, err := env.RunAll(ctx, pols, Options{Duration: 60}, nil)
	if err == nil {
		t.Fatal("cancelled RunAll returned no error")
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled")
	}

	// The pool and environment stay usable after cancellation.
	out, err := env.Run(context.Background(), NewConstant(), Options{Duration: 0.01})
	if err != nil || out.Err != "" {
		t.Fatalf("environment unusable after cancel: %v %q", err, out.Err)
	}
}

// TestRunCancelledImmediately covers the pre-run cancellation path.
func TestRunCancelledImmediately(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := env.Run(ctx, NewConstant(), Options{Duration: 0.01}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestDarkGatesController unit-tests the gating overlay: an island that
// bottoms out at the threshold is gated dark, stays frozen while hot,
// and re-arms only after cooling by the re-arm band.
func TestDarkGatesController(t *testing.T) {
	const thr = 80.0
	ctrl, err := newDarkGatesCtrl(thr, 1.0, 1.0, 2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := ctrl.Start()
	if d.Levels[0] != 2 || d.Gated[0] || d.Gated[1] {
		t.Fatalf("start decision %+v", d)
	}
	hot := Observation{PeakC: thr + 3, PlacementPeakC: []float64{thr + 3, thr - 5}}
	// Island 0 is pinned hot: the loop walks 2 -> 1, then bottoms out at
	// 0 and gates in the same period.
	d = ctrl.Next(hot)
	if d.Levels[0] != 1 || d.Gated[0] {
		t.Fatalf("after first hot step: %+v", d)
	}
	d = ctrl.Next(hot)
	if d.Levels[0] != 0 || !d.Gated[0] {
		t.Fatalf("island 0 not gated at bottom level while hot: %+v", d)
	}
	if d.Gated[1] {
		t.Fatal("cool island 1 gated")
	}
	// Still hot: stays gated.
	d = ctrl.Next(hot)
	if !d.Gated[0] {
		t.Fatal("gated island re-armed while hot")
	}
	// Cooled to just inside the re-arm band: stays gated (strict <).
	d = ctrl.Next(Observation{PeakC: thr - 1, PlacementPeakC: []float64{thr - 1, thr - 5}})
	if !d.Gated[0] {
		t.Fatal("island re-armed at the band edge")
	}
	// Cooled past the band: re-arms.
	d = ctrl.Next(Observation{PeakC: thr - 1.5, PlacementPeakC: []float64{thr - 1.5, thr - 5}})
	if d.Gated[0] {
		t.Fatal("cooled island still gated")
	}
}

// TestGatedPlacementsAreDark checks the sandbox side of gating: a
// decision that gates a placement must zero its power and drop it from
// the active-core count in the trace.
func TestGatedPlacementsAreDark(t *testing.T) {
	env := testEnv(t, scenario.PackMultiInstancing)
	prep, err := TDPMap{}.Prepare(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]int, len(prep.Plan.Placements))
	for i := range levels {
		levels[i] = 3
	}
	gated := make([]bool, len(levels))
	gated[0] = true
	out, err := env.Run(context.Background(), preparedPolicy{&Prepared{
		Plan:   prep.Plan,
		Ladder: env.Platform.Ladder,
		Ctrl:   staticCtrl{Decision{Levels: levels, Gated: gated}},
	}}, Options{Duration: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != "" {
		t.Fatal(out.Err)
	}
	for _, s := range out.Steps {
		if s.PlacementW[0] != 0 {
			t.Fatalf("gated placement drew %.3f W", s.PlacementW[0])
		}
		if s.PlacementW[1] <= 0 {
			t.Fatal("ungated placement drew no power")
		}
		want := 0
		for i, pl := range prep.Plan.Placements {
			if !gated[i] {
				want += len(pl.Cores)
			}
		}
		if s.ActiveCores != want {
			t.Fatalf("active %d, want %d", s.ActiveCores, want)
		}
	}
}

type staticCtrl struct{ d Decision }

func (s staticCtrl) Start() Decision           { return s.d }
func (s staticCtrl) Next(Observation) Decision { return s.d }

// preparedPolicy injects a hand-built Prepared into the sandbox.
type preparedPolicy struct{ prep *Prepared }

func (p preparedPolicy) Name() string                                     { return "test-prepared" }
func (p preparedPolicy) Info() string                                     { return "hand-built prepared policy" }
func (p preparedPolicy) Prepare(context.Context, *Env) (*Prepared, error) { return p.prep, nil }

// TestRunAllMatchesSoloRuns pins the lockstep race's exactness contract:
// racing policies together on the shared batched solver must produce,
// per lane, exactly the outcome a solo Run produces — metrics, every
// trace step, and violations, bit for bit.
func TestRunAllMatchesSoloRuns(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	pols := []Policy{NewConstant(), NewBoost(), NewDsRem(), NewDarkGates()}
	opt := Options{Duration: 0.03}
	packed, err := env.RunAll(context.Background(), pols, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range pols {
		solo, err := env.Run(context.Background(), pol, opt)
		if err != nil {
			t.Fatalf("%s solo: %v", pol.Name(), err)
		}
		if !reflect.DeepEqual(packed[i], solo) {
			t.Fatalf("%s: pack outcome diverges from solo run\npack: %+v\nsolo: %+v",
				pol.Name(), packed[i], solo)
		}
	}
}

// TestBadDecisionRetiresLane drives controllers whose decisions do not
// match the plan: each lane retires with an ErrPolicy error in its
// Outcome instead of panicking or failing the race.
func TestBadDecisionRetiresLane(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	prep, err := TDPMap{}.Prepare(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	n := len(prep.Plan.Placements)
	good := Decision{Levels: make([]int, n)}
	cases := []struct {
		name        string
		start, next Decision
	}{
		{"start too few levels", Decision{Levels: make([]int, n-1)}, good},
		{"next too many levels", good, Decision{Levels: make([]int, n+1)}},
		{"next wrong gate count", good, Decision{Levels: make([]int, n), Gated: make([]bool, n+2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := env.Run(context.Background(), preparedPolicy{&Prepared{
				Plan:   prep.Plan,
				Ladder: env.Platform.Ladder,
				Ctrl:   shapeCtrl{tc.start, tc.next},
			}}, Options{Duration: 0.005})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(out.Err, ErrPolicy.Error()) || !strings.Contains(out.Err, "placements") {
				t.Fatalf("outcome error %q, want an ErrPolicy decision-shape error", out.Err)
			}
			if out.Passed() {
				t.Fatal("retired lane reported as passed")
			}
		})
	}
}

// TestRetiredLaneLeavesOthersUnchanged races a lane that retires mid-run
// between two healthy policies: the healthy lanes must match their solo
// runs bit for bit.
func TestRetiredLaneLeavesOthersUnchanged(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	prep, err := TDPMap{}.Prepare(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	n := len(prep.Plan.Placements)
	bad := preparedPolicy{&Prepared{
		Plan:   prep.Plan,
		Ladder: env.Platform.Ladder,
		Ctrl:   &failAfter{steps: 5, d: Decision{Levels: make([]int, n)}},
	}}
	opt := Options{Duration: 0.02}
	pols := []Policy{NewBoost(), bad, NewDarkGates()}
	raced, err := env.RunAll(context.Background(), pols, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raced[1].Err == "" {
		t.Fatal("the failing lane did not retire")
	}
	if len(raced[1].Steps) != 5 {
		t.Fatalf("failing lane recorded %d steps before retiring, want 5", len(raced[1].Steps))
	}
	for _, i := range []int{0, 2} {
		solo, err := env.Run(context.Background(), pols[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(raced[i], solo) {
			t.Fatalf("%s: outcome beside a retired lane differs from its solo run", pols[i].Name())
		}
	}
}

type shapeCtrl struct{ start, next Decision }

func (c shapeCtrl) Start() Decision           { return c.start }
func (c shapeCtrl) Next(Observation) Decision { return c.next }

// failAfter answers d for its first steps periods, then an empty
// decision that the engine must reject.
type failAfter struct {
	steps int
	d     Decision
}

func (c *failAfter) Start() Decision { return c.d }
func (c *failAfter) Next(Observation) Decision {
	if c.steps == 0 {
		return Decision{}
	}
	c.steps--
	return c.d
}
