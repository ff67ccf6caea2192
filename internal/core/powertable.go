package core

import (
	"math"

	"darksim/internal/mapping"
)

// PowerCoef is one placement's Equation (1) power with everything except
// the temperature dependence folded into constants:
//
//	P(T) = dyn + Vdd·(li·exp(γt·(T − Tref))) + Pind
//
// where dyn = α·Ceff·Vdd²·f and li = I0·exp(γv·(Vdd − VddRef)). The
// transient simulators re-evaluate core power at every control period
// with only the temperature changing; the coefficient form replaces two
// exponentials and the model/voltage lookups per core per period with
// one. It is the one Equation (1) path for placements: PlanPower,
// SteadyTemps and the transient engine all evaluate through it. At
// returns bit-for-bit power.CoreModel.Power — every product below is
// written in that method's exact association order — which
// TestPowerCoefBitIdentical pins.
type PowerCoef struct {
	dyn    float64 // α·Ceff·Vdd²·f
	vdd    float64
	li     float64 // I0·exp(γv·(Vdd−VddRef))
	gammaT float64
	tRef   float64
	pind   float64
}

// PowerCoefFor folds the placement's model lookup, V/f conversion and
// voltage-dependent leakage into a PowerCoef. It errors on an unknown
// model or an infeasible frequency.
func (p *Platform) PowerCoefFor(pl mapping.Placement, mode PowerMode) (PowerCoef, error) {
	model, err := pl.App.ModelFor(p.Node)
	if err != nil {
		return PowerCoef{}, err
	}
	vdd, err := p.Curve.VoltageFor(pl.FGHz)
	if err != nil {
		return PowerCoef{}, err
	}
	alpha := pl.App.Alpha
	if pl.Threads == 1 {
		alpha = pl.App.AlphaSingle
	}
	if mode == GatedIdle {
		alpha *= utilization(pl.App, pl.Threads)
	}
	return PowerCoef{
		dyn:    alpha * model.CeffNF * vdd * vdd * pl.FGHz,
		vdd:    vdd,
		li:     model.Leak.I0 * math.Exp(model.Leak.GammaV*(vdd-model.Leak.VddRef)),
		gammaT: model.Leak.GammaT,
		tRef:   model.Leak.TRef,
		pind:   model.PindW,
	}, nil
}

// At evaluates the placement's power at a core temperature, bit-for-bit
// equal to power.CoreModel.Power at the same temperature.
func (c PowerCoef) At(tempC float64) float64 {
	return c.dyn + c.vdd*(c.li*math.Exp(c.gammaT*(tempC-c.tRef))) + c.pind
}
