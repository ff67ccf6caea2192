package policy

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"darksim/internal/boost"
	"darksim/internal/scenario"
	"darksim/internal/sim"
)

func testEnv(t *testing.T, pack string) *Env {
	t.Helper()
	spec, err := scenario.PackByName(pack)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(sc)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// fixedDecision holds one per-placement level assignment: a test-local
// sim.Holder, the reference the sandbox's hold lanes are pinned to.
type fixedDecision []int

func (f fixedDecision) Start() sim.Decision               { return sim.Decision{Levels: f} }
func (f fixedDecision) Next(sim.Observation) sim.Decision { return sim.Decision{Levels: f} }
func (f fixedDecision) Hold() ([]int, bool)               { return f, true }

// sameAggregates fails the test unless the sandbox outcome carries
// exactly the engine result's aggregates.
func sameAggregates(t *testing.T, name string, out *Outcome, ref sim.Result) {
	t.Helper()
	if out.AvgGIPS != ref.AvgGIPS || out.EnergyJ != ref.EnergyJ ||
		out.PeakPowerW != ref.PeakPowerW || out.MaxTempC != ref.MaxTempC ||
		out.DTMEvents != ref.DTMEvents {
		t.Fatalf("%s diverges from the engine:\nsandbox gips=%v energy=%v peakW=%v maxC=%v dtm=%d\nengine  gips=%v energy=%v peakW=%v maxC=%v dtm=%d",
			name,
			out.AvgGIPS, out.EnergyJ, out.PeakPowerW, out.MaxTempC, out.DTMEvents,
			ref.AvgGIPS, ref.EnergyJ, ref.PeakPowerW, ref.MaxTempC, ref.DTMEvents)
	}
}

// TestBoostAdapterMatchesSim is the differential anchor of the sandbox
// engine: the boost and constant adapters drive the same §6 controllers
// the Figure 11-13 experiments use, so on the same plan the sandbox must
// reproduce sim.Run's throughput, energy, peak power and peak
// temperature bit for bit under the sandbox's own step mode (StepAuto,
// one recorded sample), where the constant lane snaps onto its steady
// state. The hold lanes (tdpmap, dsrem) must likewise equal a solo
// sim.RunLanes lane on the same plan with the same fixed decision and
// no hook: the trace hook changes nothing.
func TestBoostAdapterMatchesSim(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	p := env.Platform
	plan, _, err := env.Scenario.FillPlan()
	if err != nil {
		t.Fatal(err)
	}
	ladder := p.BoostLadder
	constLevel, err := boost.FindConstantLevel(p, plan, ladder, p.TDTM)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Duration: 0.05}
	simOpt := sim.Options{
		Duration: opt.Duration, ControlPeriod: 1e-3, RecordPoints: 1,
		StartSteady: true, StepMode: sim.StepAuto,
	}

	cases := []struct {
		pol  Policy
		ctrl func() (sim.Controller, error)
	}{
		{NewConstant(), func() (sim.Controller, error) {
			return boost.Constant{Level: constLevel}, nil
		}},
		{NewBoost(), func() (sim.Controller, error) {
			return boost.NewClosed(p.TDTM, constLevel, len(ladder.Points)-1)
		}},
		{NewUnsafeBoost(), func() (sim.Controller, error) {
			return boost.NewGreedy(constLevel, len(ladder.Points)-1)
		}},
	}
	for _, tc := range cases {
		out, err := env.Run(context.Background(), tc.pol, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.pol.Name(), err)
		}
		if out.Err != "" {
			t.Fatalf("%s: %s", tc.pol.Name(), out.Err)
		}
		ctrl, err := tc.ctrl()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sim.Run(p, plan, ctrl, ladder, simOpt)
		if err != nil {
			t.Fatalf("%s: sim.Run: %v", tc.pol.Name(), err)
		}
		sameAggregates(t, tc.pol.Name(), out, ref)
		if len(out.Steps) != int(opt.Duration/1e-3+0.5) {
			t.Fatalf("%s: %d trace steps", tc.pol.Name(), len(out.Steps))
		}
	}

	for _, pol := range []Policy{NewTDPMap(), NewDsRem()} {
		out, err := env.Run(context.Background(), pol, opt)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if out.Err != "" {
			t.Fatalf("%s: %s", pol.Name(), out.Err)
		}
		prep, err := pol.Prepare(context.Background(), env)
		if err != nil {
			t.Fatal(err)
		}
		levels := make(fixedDecision, len(prep.Plan.Placements))
		for i, pl := range prep.Plan.Placements {
			levels[i] = p.Ladder.Nearest(pl.FGHz)
		}
		lane := &sim.Lane{
			Plans: sim.StaticPlan{Plan: prep.Plan}, Ctrl: levels,
			Ladder: p.Ladder, StartSteady: true,
		}
		if err := sim.RunLanes(context.Background(), p, []*sim.Lane{lane}, simOpt); err != nil {
			t.Fatal(err)
		}
		if lane.Err != nil {
			t.Fatalf("%s: solo lane: %v", pol.Name(), lane.Err)
		}
		sameAggregates(t, pol.Name(), out, lane.Result)
		if len(out.Steps) != int(opt.Duration/1e-3+0.5) {
			t.Fatalf("%s: %d trace steps", pol.Name(), len(out.Steps))
		}
	}
}

// TestTDPMapAdapterMatchesEvaluate checks the mapping side: the tdpmap
// policy's plan is the scenario's own TDP fill, so the per-app instance
// accounting must equal scenario.Evaluate's bit for bit.
func TestTDPMapAdapterMatchesEvaluate(t *testing.T) {
	for _, pack := range []string{
		scenario.PackSymmetric, scenario.PackAsymmetric, scenario.PackMultiInstancing,
	} {
		env := testEnv(t, pack)
		res, err := env.Scenario.Evaluate(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", pack, err)
		}
		plan, apps, err := env.Scenario.FillPlan()
		if err != nil {
			t.Fatalf("%s: %v", pack, err)
		}
		if !reflect.DeepEqual(apps, res.Apps) {
			t.Fatalf("%s: FillPlan app accounting diverges from Evaluate:\n%#v\n%#v", pack, apps, res.Apps)
		}
		prep, err := TDPMap{}.Prepare(context.Background(), env)
		if err != nil {
			t.Fatalf("%s: %v", pack, err)
		}
		if !reflect.DeepEqual(prep.Plan, plan) {
			t.Fatalf("%s: tdpmap plan diverges from the TDP fill", pack)
		}
		total := 0
		for _, a := range res.Apps {
			total += a.ActiveCores
		}
		got := 0
		for _, pl := range prep.Plan.Placements {
			got += len(pl.Cores)
		}
		if got != total {
			t.Fatalf("%s: plan uses %d cores, Evaluate accounted %d", pack, got, total)
		}
	}
}

// TestPatternedKeepsInstanceCounts checks that patterning only moves
// placements: instance counts and thread counts match the plain fill.
func TestPatternedKeepsInstanceCounts(t *testing.T) {
	env := testEnv(t, scenario.PackSymmetric)
	plain, _, err := env.Scenario.FillPlan()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewPatterned().Prepare(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Plan.Placements) != len(plain.Placements) {
		t.Fatalf("patterned has %d placements, fill %d", len(prep.Plan.Placements), len(plain.Placements))
	}
	moved := false
	for i, pl := range prep.Plan.Placements {
		if len(pl.Cores) != len(plain.Placements[i].Cores) {
			t.Fatalf("placement %d resized %d -> %d", i, len(plain.Placements[i].Cores), len(pl.Cores))
		}
		if !reflect.DeepEqual(pl.Cores, plain.Placements[i].Cores) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("periphery patterning left every placement where the fill put it")
	}
}

// TestPackRacesMatchExact bounds what the sandbox's StepAuto race gives
// up. For every pack and every registered policy, each Outcome of the
// race must match the same prepared lane stepped exactly (sim.StepExact,
// no hook) within the bounds of sim's TestStepAutoQuietMatchesExact:
// peak temperature within 0.05 °C, throughput within a relative 1e-9,
// energy and peak power within a relative 1e-3, the same DTM count. The
// assertion verdicts, first violating step included, must stay as
// pinned here, the negative control caught on every pack.
func TestPackRacesMatchExact(t *testing.T) {
	verdicts := map[string]map[string]string{
		scenario.PackSymmetric: {
			"tdpmap":       "never-exceed-tdtm@0",
			"boost-unsafe": "never-exceed-tdtm@14 tsp-respected@14 ladder-step-legal@125",
		},
		scenario.PackAsymmetric: {
			"tdpmap":       "never-exceed-tdtm@0 tsp-respected@0",
			"patterned":    "never-exceed-tdtm@0 tsp-respected@0",
			"boost-unsafe": "never-exceed-tdtm@37 tsp-respected@37",
		},
		scenario.PackMultiInstancing: {
			"tdpmap":       "never-exceed-tdtm@0",
			"boost-unsafe": "never-exceed-tdtm@29 tsp-respected@29 ladder-step-legal@438",
		},
	}
	ctx := context.Background()
	opt := Options{Duration: 0.5}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }
	for pack, want := range verdicts {
		env := testEnv(t, pack)
		pols := Registry()
		outs, err := env.RunAll(ctx, pols, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([]*sim.Lane, len(pols))
		for i, pol := range pols {
			prep, err := pol.Prepare(ctx, env)
			if err != nil {
				t.Fatalf("%s/%s: %v", pack, pol.Name(), err)
			}
			lanes[i] = &sim.Lane{
				Plans: sim.StaticPlan{Plan: prep.Plan}, Ctrl: prep.Ctrl,
				Ladder: prep.Ladder, StartSteady: prep.StartSteady,
			}
		}
		if err := sim.RunLanes(ctx, env.Platform, lanes, sim.Options{
			Duration: opt.Duration, ControlPeriod: sim.ControlPeriodS, RecordPoints: 1,
		}); err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			name := pack + "/" + out.Policy
			if out.Err != "" || lanes[i].Err != nil {
				t.Fatalf("%s: sandbox %q, exact lane %v", name, out.Err, lanes[i].Err)
			}
			ref := lanes[i].Result
			if math.Abs(out.MaxTempC-ref.MaxTempC) > 0.05 || rel(out.AvgGIPS, ref.AvgGIPS) > 1e-9 ||
				rel(out.EnergyJ, ref.EnergyJ) > 1e-3 || rel(out.PeakPowerW, ref.PeakPowerW) > 1e-3 ||
				out.DTMEvents != ref.DTMEvents {
				t.Errorf("%s outside the StepAuto bounds:\nsandbox gips=%v energy=%v peakW=%v maxC=%v dtm=%d\nexact   gips=%v energy=%v peakW=%v maxC=%v dtm=%d",
					name,
					out.AvgGIPS, out.EnergyJ, out.PeakPowerW, out.MaxTempC, out.DTMEvents,
					ref.AvgGIPS, ref.EnergyJ, ref.PeakPowerW, ref.MaxTempC, ref.DTMEvents)
			}
			var got []string
			for _, v := range out.Violations {
				got = append(got, fmt.Sprintf("%s@%d", v.Assertion, v.Step))
			}
			if g := strings.Join(got, " "); g != want[out.Policy] {
				t.Errorf("%s: verdict %q, want %q", name, g, want[out.Policy])
			}
		}
		if outs[len(outs)-1].Policy != "boost-unsafe" || outs[len(outs)-1].Passed() {
			t.Errorf("%s: the negative control boost-unsafe was not caught", pack)
		}
	}
}
