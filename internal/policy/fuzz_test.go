package policy

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzPolicyTrace drives the assertion engine with arbitrary traces: a
// legal trace generated from the input's seed must pass every standard
// assertion, and once one field of one step holds an arbitrary value
// (NaN, ±Inf, a level off the ladder, a changed placement count), Check
// must still return without an error or a panic and may name only the
// corrupted step or the one after it (the step-to-step assertions
// compare each step with its predecessor).
func FuzzPolicyTrace(f *testing.F) {
	f.Add(int64(3), uint8(4), uint8(2), uint8(1), uint8(0), 85.0, 0)
	f.Add(int64(7), uint8(30), uint8(5), uint8(12), uint8(4), math.Inf(-1), 2)
	f.Add(int64(11), uint8(9), uint8(3), uint8(8), uint8(6), 0.0, -1)
	f.Add(int64(5), uint8(6), uint8(4), uint8(2), uint8(8), math.NaN(), 1)

	asserts := StandardAssertions(testTDTM, testMaxLevel)
	f.Fuzz(func(t *testing.T, seed int64, n, placements, at, field uint8, x float64, level int) {
		steps := genLegalTrace(rand.New(rand.NewSource(seed)), 1+int(n)%40, 1+int(placements)%6)
		if viols, err := Check(steps, asserts); err != nil || len(viols) != 0 {
			t.Fatalf("legal trace: violations %v, err %v", viols, err)
		}
		k := int(at) % len(steps)
		s := &steps[k]
		j := int(uint(level) % uint(len(s.Levels)))
		switch field % 9 {
		case 0:
			s.PeakC = x
		case 1:
			s.TotalW = x
		case 2:
			s.MaxCoreW = x
		case 3:
			s.TSPPerCoreW = x
		case 4:
			s.TimeS = x
		case 5:
			s.GIPS = x
		case 6:
			s.Levels[j] = level
		case 7:
			s.PlacementW[j] = x
		case 8:
			s.Levels = s.Levels[:j]
		}
		viols, err := Check(steps, asserts)
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		for _, v := range viols {
			if v.Step != k && v.Step != k+1 {
				t.Fatalf("field %d corrupted at step %d, violation names step %d: %v", field%9, k, v.Step, v)
			}
		}
	})
}
