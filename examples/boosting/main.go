// Boosting demo: run the §6 transient comparison on a small workload —
// a Turbo-style closed-loop controller oscillating at the 80 °C threshold
// versus the best constant frequency — and print the traces.
package main

import (
	"fmt"
	"log"
	"os"

	"darksim/internal/apps"
	"darksim/internal/boost"
	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/report"
	"darksim/internal/sim"
	"darksim/internal/tech"
)

func main() {
	platform, err := core.NewPlatform(tech.Node16)
	if err != nil {
		log.Fatal(err)
	}
	app, err := apps.ByName("x264")
	if err != nil {
		log.Fatal(err)
	}

	// 12 instances × 8 threads, patterned across the chip.
	const instances = 12
	plan, err := mapping.Pack(platform.Floorplan, mapping.PeripheryFirst, instances*8, app, 8, 3.0)
	if err != nil {
		log.Fatal(err)
	}

	ladder := platform.BoostLadder
	constLevel, err := boost.FindConstantLevel(platform, plan, ladder, platform.TDTM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constant-frequency operating point: %.1f GHz\n", ladder.Points[constLevel].FGHz)

	opts := sim.Options{Duration: 10, ControlPeriod: 1e-3, StartSteady: true}
	constRes, err := sim.Run(platform, plan, boost.Constant{Level: constLevel}, ladder, opts)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := boost.NewClosed(platform.TDTM, constLevel, len(ladder.Points)-1)
	if err != nil {
		log.Fatal(err)
	}
	boostRes, err := sim.Run(platform, plan, ctrl, ladder, opts)
	if err != nil {
		log.Fatal(err)
	}

	chart := &report.Chart{Title: "peak temperature over 10 s [°C]", XLabel: "time [s]"}
	bt := boostRes.PeakTemp.Downsample(100)
	ct := constRes.PeakTemp.Downsample(100)
	if err := chart.RenderLines(os.Stdout, []string{"boosting", "constant"},
		[][]float64{bt.X, ct.X}, [][]float64{bt.Y, ct.Y}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nboosting:  avg %.1f GIPS, peak power %.0f W, max temp %.2f °C\n",
		boostRes.AvgGIPS, boostRes.PeakPowerW, boostRes.MaxTempC)
	fmt.Printf("constant:  avg %.1f GIPS, peak power %.0f W, max temp %.2f °C\n",
		constRes.AvgGIPS, constRes.PeakPowerW, constRes.MaxTempC)
	gain := 100 * (boostRes.AvgGIPS - constRes.AvgGIPS) / constRes.AvgGIPS
	cost := 100 * (boostRes.PeakPowerW - constRes.PeakPowerW) / constRes.PeakPowerW
	fmt.Printf("\nObservation 3: +%.1f%% performance costs +%.1f%% peak power\n", gain, cost)
}
