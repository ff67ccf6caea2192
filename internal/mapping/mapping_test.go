package mapping

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"darksim/internal/apps"
	"darksim/internal/floorplan"
	"darksim/internal/tech"
	"darksim/internal/thermal"
	"darksim/internal/vf"
)

func grid10(t testing.TB) *floorplan.Floorplan {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// powerer16 evaluates Equation (1) at 16 nm.
func powerer16() NodePowerer {
	return NodePowerFunc(func(a apps.App, fGHz, tempC float64) (float64, error) {
		return a.CorePower(tech.Node16, fGHz, tempC)
	})
}

func thermalEval(t testing.TB, fp *floorplan.Floorplan, pow NodePowerer) Evaluator {
	t.Helper()
	m, err := thermal.NewModel(fp, thermal.DefaultConfig(fp.DieW, fp.DieH, fp.Cols, fp.Rows))
	if err != nil {
		t.Fatal(err)
	}
	return EvaluatorFunc(func(plan *Plan) (float64, error) {
		pw, err := plan.PowerVector(pow, 80)
		if err != nil {
			return 0, err
		}
		peak, _, err := m.PeakSteadyState(pw)
		return peak, err
	})
}

func assertDisjointValid(t *testing.T, fp *floorplan.Floorplan, cores []int, n int) {
	t.Helper()
	if len(cores) != n {
		t.Fatalf("got %d cores, want %d", len(cores), n)
	}
	seen := make(map[int]bool)
	for _, c := range cores {
		if c < 0 || c >= fp.NumBlocks() {
			t.Fatalf("core %d out of range", c)
		}
		if seen[c] {
			t.Fatalf("core %d duplicated", c)
		}
		seen[c] = true
	}
}

func TestStrategiesBasic(t *testing.T) {
	fp := grid10(t)
	for name, s := range Strategies() {
		for _, n := range []int{0, 1, 37, 100} {
			cores, err := s(fp, n)
			if err != nil {
				t.Fatalf("%s(%d): %v", name, n, err)
			}
			assertDisjointValid(t, fp, cores, n)
		}
		if _, err := s(fp, 101); err == nil {
			t.Errorf("%s: oversubscription should error", name)
		}
		if _, err := s(fp, -1); err == nil {
			t.Errorf("%s: negative request should error", name)
		}
	}
}

func TestContiguousOrder(t *testing.T) {
	fp := grid10(t)
	cores, err := Contiguous(fp, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cores {
		if c != i {
			t.Fatalf("contiguous[%d] = %d", i, c)
		}
	}
}

func TestCheckerboardParity(t *testing.T) {
	fp := grid10(t)
	cores, err := Checkerboard(fp, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cores {
		b := fp.Blocks[c]
		if (b.Row+b.Col)%2 != 0 {
			t.Fatalf("first 50 checkerboard cores must be even parity; got (%d,%d)", b.Row, b.Col)
		}
	}
	// Needs a grid.
	nonGrid := &floorplan.Floorplan{DieW: 1, DieH: 1,
		Blocks: []floorplan.Block{{Name: "a", W: 1, H: 1}}}
	if _, err := Checkerboard(nonGrid, 1); err == nil {
		t.Errorf("non-grid should error")
	}
}

func TestPeripheryFirstPrefersCorners(t *testing.T) {
	fp := grid10(t)
	cores, err := PeripheryFirst(fp, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cores {
		b := fp.Blocks[c]
		isCorner := (b.Row == 0 || b.Row == 9) && (b.Col == 0 || b.Col == 9)
		if !isCorner {
			t.Fatalf("first 4 periphery cores should be corners; got (%d,%d)", b.Row, b.Col)
		}
	}
	// The die centre comes last.
	all, err := PeripheryFirst(fp, 100)
	if err != nil {
		t.Fatal(err)
	}
	lastBlocks := all[96:]
	for _, c := range lastBlocks {
		b := fp.Blocks[c]
		if b.Row < 4 || b.Row > 5 || b.Col < 4 || b.Col > 5 {
			t.Fatalf("last cores should be central; got (%d,%d)", b.Row, b.Col)
		}
	}
}

func TestMaxSpreadSeparation(t *testing.T) {
	fp := grid10(t)
	spread, err := MaxSpread(fp, 25)
	if err != nil {
		t.Fatal(err)
	}
	contig, err := Contiguous(fp, 25)
	if err != nil {
		t.Fatal(err)
	}
	minPair := func(cores []int) float64 {
		best := math.Inf(1)
		for i := 0; i < len(cores); i++ {
			for j := i + 1; j < len(cores); j++ {
				if d := fp.Distance(cores[i], cores[j]); d < best {
					best = d
				}
			}
		}
		return best
	}
	if minPair(spread) <= minPair(contig) {
		t.Errorf("maxspread should separate cores more than contiguous")
	}
}

func TestPlanAccounting(t *testing.T) {
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{
		NumCores: 100,
		Placements: []Placement{
			{App: x, Cores: []int{0, 1, 2, 3}, FGHz: 3.0, Threads: 4},
			{App: x, Cores: []int{10, 11}, FGHz: 2.0, Threads: 2},
		},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.ActiveCores() != 6 || plan.DarkCores() != 94 {
		t.Errorf("active=%d dark=%d", plan.ActiveCores(), plan.DarkCores())
	}
	if math.Abs(plan.DarkFraction()-0.94) > 1e-12 {
		t.Errorf("dark fraction = %v", plan.DarkFraction())
	}
	want := x.InstanceGIPS(3.0, 4) + x.InstanceGIPS(2.0, 2)
	if math.Abs(plan.TotalGIPS()-want) > 1e-12 {
		t.Errorf("GIPS = %v, want %v", plan.TotalGIPS(), want)
	}
	pw, err := plan.PowerVector(powerer16(), 80)
	if err != nil {
		t.Fatal(err)
	}
	if pw[0] <= 0 || pw[5] != 0 {
		t.Errorf("power vector wrong: %v %v", pw[0], pw[5])
	}
	total, err := plan.TotalPower(powerer16(), 80)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Errorf("total power = %v", total)
	}
}

func TestPlanValidateErrors(t *testing.T) {
	x, _ := apps.ByName("x264")
	bad := &Plan{NumCores: 10, Placements: []Placement{
		{App: x, Cores: []int{0, 0}, FGHz: 1, Threads: 2},
	}}
	if err := bad.Validate(); err == nil {
		t.Errorf("double-booked core should error")
	}
	bad = &Plan{NumCores: 10, Placements: []Placement{
		{App: x, Cores: []int{50}, FGHz: 1, Threads: 1},
	}}
	if err := bad.Validate(); err == nil {
		t.Errorf("out-of-range core should error")
	}
	bad = &Plan{NumCores: 10, Placements: []Placement{
		{App: x, Cores: []int{0, 1}, FGHz: 1, Threads: 3},
	}}
	if err := bad.Validate(); err == nil {
		t.Errorf("threads/cores mismatch should error")
	}
	bad = &Plan{NumCores: 10, Placements: []Placement{
		{App: x, Cores: []int{0}, FGHz: 0, Threads: 1},
	}}
	if err := bad.Validate(); err == nil {
		t.Errorf("zero frequency should error")
	}
	bad = &Plan{NumCores: 100, Placements: []Placement{
		{App: x, Cores: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, FGHz: 1, Threads: 9},
	}}
	if err := bad.Validate(); err == nil {
		t.Errorf("more than 8 threads should error")
	}
}

func TestTDPMapRespectsBudget(t *testing.T) {
	fp := grid10(t)
	s, err := apps.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	pow := powerer16()
	plan, err := TDPMap(fp, s, pow, TDPMapOptions{TDPW: 185, FGHz: 3.6})
	if err != nil {
		t.Fatal(err)
	}
	total, err := plan.TotalPower(pow, 80)
	if err != nil {
		t.Fatal(err)
	}
	if total > 185 {
		t.Errorf("TDPmap exceeded budget: %.1f W", total)
	}
	// Adding one more 8-thread instance would blow the budget.
	perCore, err := pow.CorePower(s, 3.6, 80)
	if err != nil {
		t.Fatal(err)
	}
	if total+8*perCore <= 185 {
		t.Errorf("TDPmap under-filled: %.1f W + instance fits in 185 W", total)
	}
	if plan.DarkCores() == 0 {
		t.Errorf("a 185 W budget must leave dark cores at 16 nm")
	}
	// All placements run 8 threads at 3.6 GHz.
	for _, p := range plan.Placements {
		if p.Threads != 8 || p.FGHz != 3.6 {
			t.Errorf("placement %+v violates TDPmap settings", p)
		}
	}
}

func TestTDPMapPartialInstance(t *testing.T) {
	fp := grid10(t)
	s, _ := apps.ByName("swaptions")
	pow := powerer16()
	full, err := TDPMap(fp, s, pow, TDPMapOptions{TDPW: 220, FGHz: 3.6})
	if err != nil {
		t.Fatal(err)
	}
	part, err := TDPMap(fp, s, pow, TDPMapOptions{TDPW: 220, FGHz: 3.6, AllowPartialInstance: true})
	if err != nil {
		t.Fatal(err)
	}
	if part.ActiveCores() < full.ActiveCores() {
		t.Errorf("partial instance should not reduce active cores")
	}
	totalPart, err := part.TotalPower(pow, 80)
	if err != nil {
		t.Fatal(err)
	}
	if totalPart > 220 {
		t.Errorf("partial fill exceeded budget: %.1f W", totalPart)
	}
}

func TestTDPMapHugeBudgetCapsAtChip(t *testing.T) {
	fp := grid10(t)
	s, _ := apps.ByName("canneal")
	plan, err := TDPMap(fp, s, powerer16(), TDPMapOptions{TDPW: 1e6, FGHz: 3.6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ActiveCores() != 96 { // 12 instances × 8 threads on 100 cores
		t.Errorf("active = %d, want 96", plan.ActiveCores())
	}
}

func TestTDPMapMaxInstances(t *testing.T) {
	fp := grid10(t)
	s, _ := apps.ByName("canneal")
	plan, err := TDPMap(fp, s, powerer16(), TDPMapOptions{TDPW: 1e6, FGHz: 3.6, MaxInstances: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Placements) != 3 {
		t.Errorf("instances = %d", len(plan.Placements))
	}
}

func TestTDPMapErrors(t *testing.T) {
	fp := grid10(t)
	s, _ := apps.ByName("x264")
	pow := powerer16()
	if _, err := TDPMap(fp, s, pow, TDPMapOptions{TDPW: 0, FGHz: 3.6}); err == nil {
		t.Errorf("zero TDP should error")
	}
	if _, err := TDPMap(fp, s, pow, TDPMapOptions{TDPW: 100, FGHz: 0}); err == nil {
		t.Errorf("zero frequency should error")
	}
	if _, err := TDPMap(fp, s, pow, TDPMapOptions{TDPW: 100, FGHz: 3.6, Threads: 12}); err == nil {
		t.Errorf("12 threads should error")
	}
}

func TestDsRemRespectsThermalConstraintAndBeatsTDPMap(t *testing.T) {
	fp := grid10(t)
	pow := powerer16()
	eval := thermalEval(t, fp, pow)
	curve, err := vf.CurveFor(tech.Node16)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := vf.NewLadder(curve, vf.LadderOptions{MinGHz: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	mix := []apps.App{}
	for _, n := range []string{"x264", "swaptions"} {
		a, err := apps.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, a)
	}
	plan, err := DsRem(fp, mix, pow, eval, DsRemOptions{Levels: ladder.Levels()})
	if err != nil {
		t.Fatal(err)
	}
	peak, err := eval.PeakTemp(plan)
	if err != nil {
		t.Fatal(err)
	}
	if peak > 80+1e-6 {
		t.Errorf("DsRem plan violates 80 °C: %.2f", peak)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}

	// The Figure 9 claim: DsRem outperforms TDPmap (which maps at max
	// v/f under the pessimistic 185 W TDP with contiguous placement).
	s, _ := apps.ByName("swaptions")
	tdpPlan, err := TDPMap(fp, s, pow, TDPMapOptions{TDPW: 185, FGHz: 3.6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalGIPS() <= tdpPlan.TotalGIPS() {
		t.Errorf("DsRem GIPS %.1f should beat TDPmap GIPS %.1f",
			plan.TotalGIPS(), tdpPlan.TotalGIPS())
	}
}

func TestDsRemErrors(t *testing.T) {
	fp := grid10(t)
	pow := powerer16()
	eval := thermalEval(t, fp, pow)
	if _, err := DsRem(fp, nil, pow, eval, DsRemOptions{Levels: []float64{1}}); err == nil {
		t.Errorf("empty mix should error")
	}
	x, _ := apps.ByName("x264")
	if _, err := DsRem(fp, []apps.App{x}, pow, eval, DsRemOptions{}); err == nil {
		t.Errorf("missing ladder should error")
	}
	// 20 apps on a 100-core chip: share of 5 cores cannot host an
	// 8-thread instance.
	big := make([]apps.App, 20)
	for i := range big {
		big[i] = x
	}
	if _, err := DsRem(fp, big, pow, eval, DsRemOptions{Levels: []float64{1}}); err == nil {
		t.Errorf("oversubscribed mix should error")
	}
}

// Property: every strategy is prefix-consistent — strategy(fp, n) is a
// prefix of strategy(fp, n+1) up to ordering of the selected set. The
// binary searches in internal/core (MaxCoresUnderTemp) rely on the
// stronger property that the selected SET grows monotonically with n.
func TestStrategyPrefixConsistencyProperty(t *testing.T) {
	fp := grid10(t)
	for name, s := range Strategies() {
		f := func(nRaw uint8) bool {
			n := int(nRaw) % 100
			small, err := s(fp, n)
			if err != nil {
				return false
			}
			large, err := s(fp, n+1)
			if err != nil {
				return false
			}
			in := make(map[int]bool, len(large))
			for _, c := range large {
				in[c] = true
			}
			for _, c := range small {
				if !in[c] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: strategies are deterministic — two invocations agree exactly.
func TestStrategyDeterminismProperty(t *testing.T) {
	fp := grid10(t)
	for name, s := range Strategies() {
		f := func(nRaw uint8) bool {
			n := int(nRaw) % 101
			a, err1 := s(fp, n)
			b, err2 := s(fp, n)
			if err1 != nil || err2 != nil {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(18))}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestReplaceMovesNotResizes(t *testing.T) {
	fp := grid10(t)
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{
		NumCores: fp.NumBlocks(),
		Placements: []Placement{
			{App: x, Cores: []int{40, 41, 42, 43}, FGHz: 3.0, Threads: 4},
			{App: x, Cores: []int{44, 45}, FGHz: 2.0, Threads: 2},
		},
	}
	out, err := Replace(plan, fp, PeripheryFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.ActiveCores() != plan.ActiveCores() || len(out.Placements) != len(plan.Placements) {
		t.Fatalf("replace changed instance accounting: %+v", out)
	}
	for i, p := range out.Placements {
		orig := plan.Placements[i]
		if p.App.Name != orig.App.Name || p.FGHz != orig.FGHz || p.Threads != orig.Threads {
			t.Fatalf("placement %d altered beyond cores: %+v vs %+v", i, p, orig)
		}
	}
	// Periphery-first must pull the packed center placement outward.
	if out.Placements[0].Cores[0] == plan.Placements[0].Cores[0] {
		t.Fatal("replace left the center placement in place")
	}
	// An overbooked plan cannot be replaced.
	big := &Plan{NumCores: 4, Placements: []Placement{
		{App: x, Cores: []int{0, 1, 2, 3}, FGHz: 1, Threads: 4},
	}}
	if _, err := Replace(big, fp, PeripheryFirst); err == nil {
		t.Fatal("replace onto a mismatched floorplan succeeded")
	}
}

func TestAddInstancesPacks(t *testing.T) {
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	seq := func(from, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	cases := []struct {
		name    string
		cores   []int
		threads int
		want    [][]int
	}{
		{"exact multiple", seq(0, 16), 8, [][]int{seq(0, 8), seq(8, 8)}},
		{"partial tail", seq(10, 11), 4, [][]int{seq(10, 4), seq(14, 4), seq(18, 3)}},
		{"fewer than one instance", seq(5, 3), 8, [][]int{seq(5, 3)}},
		{"empty", nil, 8, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := &Plan{NumCores: 100}
			plan.AddInstances(x, tc.cores, tc.threads, 2.5)
			if len(plan.Placements) != len(tc.want) {
				t.Fatalf("%d placements, want %d", len(plan.Placements), len(tc.want))
			}
			for i, pl := range plan.Placements {
				if !reflect.DeepEqual(pl.Cores, tc.want[i]) || pl.Threads != len(tc.want[i]) ||
					pl.FGHz != 2.5 || pl.App.Name != "x264" {
					t.Errorf("placement %d = %+v, want cores %v", i, pl, tc.want[i])
				}
			}
			if err := plan.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPackMatchesStrategy pins Pack to "strategy, then AddInstances":
// periphery-first cores in order, 8-thread instances, a partial last one.
func TestPackMatchesStrategy(t *testing.T) {
	fp := grid10(t)
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Pack(fp, PeripheryFirst, 20, x, 8, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	cores, err := PeripheryFirst(fp, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{NumCores: fp.NumBlocks()}
	want.AddInstances(x, cores, 8, 3.0)
	if !reflect.DeepEqual(plan, want) || len(plan.Placements) != 3 || plan.Placements[2].Threads != 4 {
		t.Fatalf("Pack = %+v, want %+v", plan, want)
	}
	if _, err := Pack(fp, PeripheryFirst, 101, x, 8, 3.0); err == nil {
		t.Error("an oversized request must fail")
	}
}

func TestFillCount(t *testing.T) {
	cases := []struct {
		name                   string
		budgetW, perCoreW      float64
		free, threads, maxInst int
		partialOK              bool
		instances, partial     int
	}{
		{"whole instances only", 100, 4, 100, 8, 0, false, 3, 0},
		{"partial tail", 100, 4, 100, 8, 0, true, 3, 1},
		{"capped by free cores", 1e6, 4, 20, 8, 0, true, 2, 4},
		{"capped by max instances", 100, 4, 100, 8, 2, true, 2, 0},
		{"cap leaves room", 100, 4, 100, 8, 5, true, 3, 1},
		{"no budget", 0, 4, 100, 8, 0, true, 0, 0},
		{"overspent budget", -10, 4, 100, 8, 0, true, 0, 0},
	}
	for _, tc := range cases {
		inst, part := FillCount(tc.budgetW, tc.perCoreW, tc.free, tc.threads, tc.maxInst, tc.partialOK)
		if inst != tc.instances || part != tc.partial {
			t.Errorf("%s: FillCount = (%d, %d), want (%d, %d)", tc.name, inst, part, tc.instances, tc.partial)
		}
	}
}
