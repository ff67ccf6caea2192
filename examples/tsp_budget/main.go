// TSP budgeting walkthrough: compute Thermal Safe Power for a range of
// active-core counts, compare worst-case and mapping-aware budgets, and
// pick the fastest safe operating point for an application — the §5
// workflow of the paper.
package main

import (
	"context"
	"fmt"
	"log"

	"darksim/internal/apps"
	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/tech"
	"darksim/internal/tsp"
)

func main() {
	platform, err := core.NewPlatform(tech.Node16)
	if err != nil {
		log.Fatal(err)
	}
	calc, err := tsp.New(platform.Thermal, platform.TDTM)
	if err != nil {
		log.Fatal(err)
	}

	// TSP falls as the active-core count grows: more heat sources, less
	// headroom per source.
	ctx := context.Background()
	fmt.Println("worst-case TSP per core:")
	table, err := calc.Table(ctx, platform.NumCores(), 20)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range table {
		fmt.Printf("  %3d active cores -> %.2f W/core (%.0f W total)\n", e.ActiveCores, e.PerCoreW, e.TotalW)
	}

	// Mapping-aware TSP: a patterned placement earns a higher budget than
	// the worst case for the same core count.
	const active = 64
	worst, _, err := calc.WorstCase(ctx, active)
	if err != nil {
		log.Fatal(err)
	}
	pattern, err := mapping.PeripheryFirst(platform.Floorplan, active)
	if err != nil {
		log.Fatal(err)
	}
	patterned, err := calc.Given(ctx, pattern)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d cores: worst-case TSP %.2f W/core, patterned mapping %.2f W/core (+%.0f%%)\n",
		active, worst, patterned, 100*(patterned-worst)/worst)

	// Turn the budget into an operating point: the fastest DVFS level
	// whose Eq.(1) power fits under the patterned TSP.
	app, err := apps.ByName("x264")
	if err != nil {
		log.Fatal(err)
	}
	bestF := 0.0
	for _, pt := range platform.Ladder.Points {
		pw, err := platform.CorePower(app, pt.FGHz, platform.TDTM)
		if err != nil {
			log.Fatal(err)
		}
		if pw <= patterned {
			bestF = pt.FGHz
		}
	}
	if bestF == 0 {
		log.Fatalf("no level fits under %.2f W", patterned)
	}
	instances := active / apps.MaxThreadsPerInstance
	gips := float64(instances) * app.InstanceGIPS(bestF, apps.MaxThreadsPerInstance)
	fmt.Printf("%s on those %d cores: %.1f GHz is TSP-safe -> %.0f GIPS from %d instances\n",
		app.Name, active, bestF, gips, instances)
}
