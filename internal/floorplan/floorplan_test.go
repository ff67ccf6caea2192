package floorplan

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewGrid100(t *testing.T) {
	fp, err := NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumBlocks() != 100 {
		t.Fatalf("blocks = %d", fp.NumBlocks())
	}
	if err := fp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if math.Abs(fp.TotalAreaMM2()-510) > 0.1 {
		t.Errorf("total area = %.2f mm², want 510", fp.TotalAreaMM2())
	}
	// Die should be square for a 10x10 grid of square cores.
	if math.Abs(fp.DieW-fp.DieH) > 1e-12 {
		t.Errorf("die %v x %v not square", fp.DieW, fp.DieH)
	}
	// ~22.6 mm on a side for 510 mm².
	if math.Abs(fp.DieW-0.02258) > 1e-4 {
		t.Errorf("die width = %v m", fp.DieW)
	}
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(0, 5, 1); err == nil {
		t.Errorf("zero cols should error")
	}
	if _, err := NewGrid(5, -1, 1); err == nil {
		t.Errorf("negative rows should error")
	}
	for _, area := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := NewGrid(5, 5, area); !errors.Is(err, ErrInvalid) {
			t.Errorf("area %g: err = %v, want ErrInvalid", area, err)
		}
	}
}

func TestGridForCoreCount(t *testing.T) {
	cases := []struct{ n, cols, rows int }{
		{100, 10, 10}, {198, 18, 11}, {361, 19, 19}, {12, 4, 3}, {9, 3, 3},
	}
	for _, c := range cases {
		cols, rows, err := GridForCoreCount(c.n)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if cols != c.cols || rows != c.rows {
			t.Errorf("n=%d: %dx%d, want %dx%d", c.n, cols, rows, c.cols, c.rows)
		}
	}
	if _, _, err := GridForCoreCount(0); err == nil {
		t.Errorf("0 cores should error")
	}
	if _, _, err := GridForCoreCount(97); err == nil {
		t.Errorf("prime 97 should error")
	}
}

func TestNewGridForCountPaperPlatforms(t *testing.T) {
	for _, n := range []int{100, 198, 361} {
		fp, err := NewGridForCount(n, 2.7)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if fp.NumBlocks() != n {
			t.Errorf("n=%d: blocks = %d", n, fp.NumBlocks())
		}
		if err := fp.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	if _, err := NewGridForCount(-1, 2.7); err == nil {
		t.Errorf("invalid count should error")
	}
}

func TestIndexAndNeighbors(t *testing.T) {
	fp, err := NewGrid(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fp.Index(1, 2); got != 6 {
		t.Errorf("Index(1,2) = %d", got)
	}
	if fp.Index(-1, 0) != -1 || fp.Index(0, 4) != -1 || fp.Index(3, 0) != -1 {
		t.Errorf("out-of-range index should be -1")
	}
	// Index bounds the 4-neighbourhood: corner 2, edge 3, interior 4.
	neighbours := func(row, col int) int {
		n := 0
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			if fp.Index(row+d[0], col+d[1]) >= 0 {
				n++
			}
		}
		return n
	}
	if n := neighbours(0, 0); n != 2 {
		t.Errorf("corner neighbours = %d", n)
	}
	if n := neighbours(0, 1); n != 3 {
		t.Errorf("edge neighbours = %d", n)
	}
	if n := neighbours(1, 1); n != 4 {
		t.Errorf("interior neighbours = %d", n)
	}
}

func TestDistance(t *testing.T) {
	fp, err := NewGrid(3, 3, 1) // 1 mm² cores, side 1e-3 m
	if err != nil {
		t.Fatal(err)
	}
	d := fp.Distance(fp.Index(0, 0), fp.Index(0, 2))
	if math.Abs(d-2e-3) > 1e-12 {
		t.Errorf("Distance = %v, want 2e-3", d)
	}
	diag := fp.Distance(fp.Index(0, 0), fp.Index(1, 1))
	if math.Abs(diag-math.Sqrt2*1e-3) > 1e-12 {
		t.Errorf("diag distance = %v", diag)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	fp := &Floorplan{
		DieW: 2, DieH: 1,
		Blocks: []Block{
			{Name: "a", X: 0, Y: 0, W: 1.2, H: 1},
			{Name: "b", X: 1, Y: 0, W: 1, H: 1},
		},
	}
	if err := fp.Validate(); err == nil {
		t.Errorf("overlap should be caught")
	}
	fp2 := &Floorplan{
		DieW: 2, DieH: 1,
		Blocks: []Block{
			{Name: "a", X: 0, Y: 0, W: 1, H: 1},
			{Name: "a", X: 1, Y: 0, W: 1, H: 1},
		},
	}
	if err := fp2.Validate(); err == nil {
		t.Errorf("duplicate names should be caught")
	}
	fp3 := &Floorplan{DieW: 1, DieH: 1, Blocks: []Block{{Name: "a", X: 0.5, Y: 0, W: 1, H: 1}}}
	if err := fp3.Validate(); err == nil {
		t.Errorf("out-of-die should be caught")
	}
	fp4 := &Floorplan{}
	if err := fp4.Validate(); err == nil {
		t.Errorf("empty plan should be caught")
	}
	fp5 := &Floorplan{DieW: 1, DieH: 1, Blocks: []Block{{Name: "a", X: 0, Y: 0, W: 0, H: 1}}}
	if err := fp5.Validate(); err == nil {
		t.Errorf("zero-size block should be caught")
	}
}

func TestFLPRoundTrip(t *testing.T) {
	fp, err := NewGrid(5, 4, 2.7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fp.WriteFLP(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBlocks() != fp.NumBlocks() {
		t.Fatalf("blocks = %d, want %d", got.NumBlocks(), fp.NumBlocks())
	}
	if got.Rows != 4 || got.Cols != 5 {
		t.Errorf("grid metadata = %dx%d, want 5x4", got.Cols, got.Rows)
	}
	// Row-major order must be restored so Index works.
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			i := got.Index(r, c)
			if got.Blocks[i].Row != r || got.Blocks[i].Col != c {
				t.Fatalf("block at (%d,%d) is %+v", r, c, got.Blocks[i])
			}
		}
	}
	// .flp stores nanometre-rounded coordinates, so areas may drift by
	// a few 1e-5 mm² across a round trip.
	if math.Abs(got.TotalAreaMM2()-fp.TotalAreaMM2()) > 1e-3 {
		t.Errorf("area drifted: %v vs %v", got.TotalAreaMM2(), fp.TotalAreaMM2())
	}
}

func TestReadFLPNonGridNames(t *testing.T) {
	in := "alu\t0.001\t0.001\t0\t0\ncache\t0.001\t0.001\t0.001\t0\n"
	fp, err := ReadFLP(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if fp.Cols != 0 {
		t.Errorf("non-grid names should not produce grid metadata")
	}
	if fp.NumBlocks() != 2 {
		t.Errorf("blocks = %d", fp.NumBlocks())
	}
}

func TestReadFLPErrors(t *testing.T) {
	if _, err := ReadFLP(strings.NewReader("")); err == nil {
		t.Errorf("empty input should error")
	}
	if _, err := ReadFLP(strings.NewReader("a 1 2 3\n")); err == nil {
		t.Errorf("short line should error")
	}
	if _, err := ReadFLP(strings.NewReader("a x 1 0 0\n")); err == nil {
		t.Errorf("bad float should error")
	}
	// Overlapping blocks must fail validation on read.
	if _, err := ReadFLP(strings.NewReader("a\t1\t1\t0\t0\nb\t1\t1\t0.5\t0\n")); err == nil {
		t.Errorf("overlap should error")
	}
}

func TestReadFLPIgnoresCommentsAndBlanks(t *testing.T) {
	in := "# header\n\ncore_0_0 0.001 0.001 0 0\n# tail\ncore_0_1 0.001 0.001 0.001 0\n"
	fp, err := ReadFLP(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumBlocks() != 2 || fp.Cols != 2 || fp.Rows != 1 {
		t.Errorf("got %d blocks, %dx%d", fp.NumBlocks(), fp.Cols, fp.Rows)
	}
}

func TestSortedByName(t *testing.T) {
	fp := &Floorplan{
		DieW: 3, DieH: 1,
		Blocks: []Block{
			{Name: "c", X: 2, Y: 0, W: 1, H: 1},
			{Name: "a", X: 0, Y: 0, W: 1, H: 1},
			{Name: "b", X: 1, Y: 0, W: 1, H: 1},
		},
	}
	idx := fp.SortedByName()
	if fp.Blocks[idx[0]].Name != "a" || fp.Blocks[idx[2]].Name != "c" {
		t.Errorf("sorted order wrong: %v", idx)
	}
}

// Property: every generated grid validates, has the right block count and
// survives a .flp round trip with identical geometry.
func TestGridRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols, rows := 1+rng.Intn(12), 1+rng.Intn(12)
		area := 0.5 + 9*rng.Float64()
		fp, err := NewGrid(cols, rows, area)
		if err != nil || fp.Validate() != nil || fp.NumBlocks() != cols*rows {
			return false
		}
		var buf bytes.Buffer
		if err := fp.WriteFLP(&buf); err != nil {
			return false
		}
		got, err := ReadFLP(&buf)
		if err != nil || got.NumBlocks() != cols*rows {
			return false
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				a := fp.Blocks[fp.Index(r, c)]
				b := got.Blocks[got.Index(r, c)]
				if math.Abs(a.X-b.X) > 1e-9 || math.Abs(a.W-b.W) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
