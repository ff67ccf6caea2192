package policy

import (
	"math/rand"
	"strings"
	"testing"
)

const (
	testTDTM     = 80.0
	testMaxLevel = 19
)

// genLegalTrace builds a random trace that satisfies every standard
// assertion: time monotone, levels walking the ladder one step at a
// time inside [0, maxLevel], peak temperatures inside the TDTM band,
// per-core power inside the TSP sprint budget, and placement powers
// summing exactly to the recorded total.
func genLegalTrace(rng *rand.Rand, steps, placements int) []Step {
	out := make([]Step, steps)
	levels := make([]int, placements)
	for i := range levels {
		levels[i] = rng.Intn(testMaxLevel + 1)
	}
	for s := 0; s < steps; s++ {
		if s > 0 {
			for i := range levels {
				switch rng.Intn(3) {
				case 0:
					if levels[i] > 0 {
						levels[i]--
					}
				case 1:
					if levels[i] < testMaxLevel {
						levels[i]++
					}
				}
			}
		}
		gated := make([]bool, placements)
		plW := make([]float64, placements)
		total := 0.0
		for i := range plW {
			gated[i] = rng.Intn(8) == 0
			if !gated[i] {
				plW[i] = 1 + 10*rng.Float64()
				total += plW[i]
			}
		}
		tsp := 2 + 3*rng.Float64()
		out[s] = Step{
			Index:       s,
			TimeS:       float64(s) * 1e-3,
			Levels:      append([]int(nil), levels...),
			Gated:       gated,
			PlacementW:  plW,
			TotalW:      total,
			MaxCoreW:    (1 + DefaultTSPSlack) * tsp * rng.Float64(),
			PeakC:       40 + (testTDTM+TDTMSlackC-40)*rng.Float64(),
			GIPS:        total * 0.8,
			ActiveCores: placements * 4,
			TSPPerCoreW: tsp,
		}
	}
	return out
}

func TestLegalTracesPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	asserts := StandardAssertions(testTDTM, testMaxLevel)
	for i := 0; i < 200; i++ {
		steps := genLegalTrace(rng, 1+rng.Intn(40), 1+rng.Intn(6))
		viols, err := Check(steps, asserts)
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if len(viols) != 0 {
			t.Fatalf("trace %d: legal trace flagged: %v", i, viols)
		}
	}
}

// injector mutates one step of a legal trace into a violation of a
// single named standard assertion, returning the assertion name. Each
// keeps the mutation on the boundary where only its own assertion
// fires.
type injector struct {
	name   string
	mutate func(steps []Step, k int, rng *rand.Rand)
}

func injectors() []injector {
	return []injector{
		{"never-exceed-tdtm", func(steps []Step, k int, rng *rand.Rand) {
			// Just over the band, with core power inside the sprint budget
			// so tsp-respected stays quiet.
			steps[k].PeakC = testTDTM + TDTMSlackC + 0.01
			steps[k].MaxCoreW = steps[k].TSPPerCoreW
		}},
		{"tsp-respected", func(steps []Step, k int, rng *rand.Rand) {
			// Exactly on the TDTM band boundary: qualifies for the TSP
			// check (>=) without exceeding the TDTM limit (>).
			steps[k].PeakC = testTDTM + TDTMSlackC
			steps[k].MaxCoreW = (1+DefaultTSPSlack)*steps[k].TSPPerCoreW + 0.01
		}},
		{"ladder-step-legal", func(steps []Step, k int, rng *rand.Rand) {
			j := rng.Intn(len(steps[k].Levels))
			prev := steps[k-1].Levels[j]
			if prev >= 2 {
				steps[k].Levels[j] = prev - 2
			} else {
				steps[k].Levels[j] = prev + 2
			}
		}},
		{"ladder-range-legal", func(steps []Step, k int, rng *rand.Rand) {
			steps[k].Levels[rng.Intn(len(steps[k].Levels))] = testMaxLevel + 1
		}},
		{"power-partition", func(steps []Step, k int, rng *rand.Rand) {
			steps[k].TotalW += 1.0
		}},
		{"time-monotone", func(steps []Step, k int, rng *rand.Rand) {
			steps[k].TimeS = steps[k-1].TimeS - 1e-3
		}},
	}
}

// TestInjectedViolationsCaught is the property test of the assertion
// engine: for every assertion kind, a single-step corruption of an
// otherwise legal trace is reported against exactly that assertion at
// exactly that step.
func TestInjectedViolationsCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	asserts := StandardAssertions(testTDTM, testMaxLevel)
	for round := 0; round < 50; round++ {
		for _, inj := range injectors() {
			steps := genLegalTrace(rng, 5+rng.Intn(30), 1+rng.Intn(5))
			k := 1 + rng.Intn(len(steps)-1) // >=1: step/monotone kinds compare to k-1
			inj.mutate(steps, k, rng)
			viols, err := Check(steps, asserts)
			if err != nil {
				t.Fatalf("%s: %v", inj.name, err)
			}
			// A corruption may legitimately trip a second assertion (an
			// out-of-range level is also an illegal jump); the property is
			// that the targeted assertion reports exactly the injected step.
			var hit *Violation
			for i := range viols {
				if viols[i].Assertion == inj.name {
					hit = &viols[i]
				}
			}
			if hit == nil {
				t.Fatalf("%s injected at step %d: not caught (got %v)", inj.name, k, viols)
			}
			if hit.Step != k {
				t.Fatalf("%s injected at step %d: reported step %d", inj.name, k, hit.Step)
			}
			if !strings.Contains(hit.Detail, "peak") {
				t.Fatalf("%s: detail lacks step context: %q", inj.name, hit.Detail)
			}
		}
	}
}

func TestCheckMalformedAssertion(t *testing.T) {
	steps := genLegalTrace(rand.New(rand.NewSource(1)), 3, 2)
	for _, bad := range []Assertion{
		{Name: "bad-kind", Kind: Kind("bogus")},
		{Name: "bad-signal", Kind: KindMax, Signal: Signal("bogus")},
	} {
		if _, err := Check(steps, []Assertion{bad}); err == nil {
			t.Fatalf("%s: malformed assertion accepted", bad.Name)
		}
	}
}

func TestCheckEmptyTrace(t *testing.T) {
	viols, err := Check(nil, StandardAssertions(testTDTM, testMaxLevel))
	if err != nil || len(viols) != 0 {
		t.Fatalf("empty trace: viols=%v err=%v", viols, err)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Assertion: "a", Step: 3, TimeS: 0.003, Detail: "d"}
	if got := v.String(); !strings.Contains(got, "step 3") || !strings.Contains(got, "a") {
		t.Fatalf("String() = %q", got)
	}
}
