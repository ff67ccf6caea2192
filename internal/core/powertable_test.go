package core

import (
	"testing"

	"darksim/internal/apps"
	"darksim/internal/mapping"
)

// directCorePower is the reference Equation (1) evaluation of one core
// of a placement: the model and voltage lookups and power.CoreModel.Power
// at the core temperature, with no folding.
func directCorePower(p *Platform, pl mapping.Placement, tempC float64, mode PowerMode) (float64, error) {
	model, err := pl.App.ModelFor(p.Node)
	if err != nil {
		return 0, err
	}
	vdd, err := p.Curve.VoltageFor(pl.FGHz)
	if err != nil {
		return 0, err
	}
	alpha := pl.App.Alpha
	if pl.Threads == 1 {
		alpha = pl.App.AlphaSingle
	}
	if mode == GatedIdle {
		alpha *= utilization(pl.App, pl.Threads)
	}
	return model.Power(alpha, vdd, pl.FGHz, tempC), nil
}

// TestPowerCoefBitIdentical is the differential pin of the fused power
// coefficients, the one Equation (1) path of PlanPower, SteadyTemps and
// the transient engine: across apps, thread counts, every boost-ladder
// level, modes and a temperature sweep, PowerCoef.At must equal the
// direct evaluation bit for bit.
func TestPowerCoefBitIdentical(t *testing.T) {
	p := plat16(t)
	catalog := apps.Catalog()
	for _, a := range catalog {
		for _, threads := range []int{1, 2, 4} {
			for _, pt := range p.BoostLadder.Points {
				pl := mapping.Placement{App: a, Cores: make([]int, threads), FGHz: pt.FGHz, Threads: threads}
				for _, mode := range []PowerMode{BusyWait, GatedIdle} {
					coef, err := p.PowerCoefFor(pl, mode)
					if err != nil {
						t.Fatalf("%s t=%d f=%g: %v", a.Name, threads, pt.FGHz, err)
					}
					for tc := 20.0; tc <= 110; tc += 7.3 {
						want, err := directCorePower(p, pl, tc, mode)
						if err != nil {
							t.Fatal(err)
						}
						if got := coef.At(tc); got != want {
							t.Fatalf("%s t=%d f=%g mode=%v T=%g: coef %v != direct %v",
								a.Name, threads, pt.FGHz, mode, tc, got, want)
						}
					}
				}
			}
		}
	}
	// Infeasible frequency must error exactly like the direct path.
	bad := mapping.Placement{App: catalog[0], Cores: []int{0}, FGHz: -1, Threads: 1}
	if _, err := p.PowerCoefFor(bad, BusyWait); err == nil {
		t.Fatal("want error for infeasible frequency")
	}
	if _, err := directCorePower(p, bad, 80, BusyWait); err == nil {
		t.Fatal("direct path accepts what PowerCoefFor rejects")
	}
}
