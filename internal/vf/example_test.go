package vf_test

import (
	"fmt"

	"darksim/internal/tech"
	"darksim/internal/vf"
)

// ExampleCurve_VoltageFor shows the minimum-voltage pairing of Eq.(2):
// ask for a frequency, get the lowest supply voltage that sustains it.
func ExampleCurve_VoltageFor() {
	curve := vf.MustCurve(tech.Node16)
	v, err := curve.VoltageFor(3.6) // the 16 nm nominal maximum
	if err != nil {
		panic(err)
	}
	fmt.Printf("3.6 GHz needs %.2f V (%s region)\n", v, curve.RegionOf(v))
	// Output: 3.6 GHz needs 0.89 V (STC region)
}

// ExampleNewLadder builds the paper's 0.2 GHz DVFS ladder with boost
// levels above the nominal maximum and prints its top six levels.
func ExampleNewLadder() {
	curve := vf.MustCurve(tech.Node16)
	ladder, err := vf.NewLadder(curve, vf.LadderOptions{MaxGHz: 4.0})
	if err != nil {
		panic(err)
	}
	for _, p := range ladder.Points[len(ladder.Points)-6:] {
		fmt.Printf("%.1f GHz @ %.2f V (%s)\n", p.FGHz, p.Vdd, p.Region)
	}
	// Output:
	// 3.0 GHz @ 0.79 V (STC)
	// 3.2 GHz @ 0.82 V (STC)
	// 3.4 GHz @ 0.86 V (STC)
	// 3.6 GHz @ 0.89 V (STC)
	// 3.8 GHz @ 0.92 V (Boost)
	// 4.0 GHz @ 0.96 V (Boost)
}
