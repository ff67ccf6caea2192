// Package floorplan models manycore chip floorplans: rectangular core
// blocks placed on a die, with grid generation for the paper's 100-, 198-
// and 361-core platforms, adjacency queries used by the mapping policies,
// and a HotSpot-style .flp text format for interchange.
//
// The paper's platforms are homogeneous grids of identical out-of-order
// Alpha 21264 cores; per-node core areas come from internal/tech (9.6, 5.1,
// 2.7 and 1.4 mm² for 22/16/11/8 nm).
package floorplan

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Block is one rectangular unit of the floorplan (a core).
type Block struct {
	Name string
	X, Y float64 // lower-left corner in metres
	W, H float64 // width and height in metres
	Row  int     // grid row (0 at the bottom), -1 if not grid-placed
	Col  int     // grid column (0 at the left), -1 if not grid-placed
}

// CenterX returns the x coordinate of the block centre.
func (b Block) CenterX() float64 { return b.X + b.W/2 }

// CenterY returns the y coordinate of the block centre.
func (b Block) CenterY() float64 { return b.Y + b.H/2 }

// Area returns the block area in m².
func (b Block) Area() float64 { return b.W * b.H }

// Floorplan is a set of non-overlapping blocks on a die.
type Floorplan struct {
	Blocks []Block
	// DieW and DieH are the die dimensions in metres (bounding box of
	// the blocks for generated plans).
	DieW, DieH float64
	// Cols and Rows are set for grid floorplans; 0 otherwise.
	Cols, Rows int
}

// ErrInvalid is returned for malformed floorplans or generation parameters.
var ErrInvalid = errors.New("floorplan: invalid")

// NewGrid builds a cols×rows grid of identical square cores, each of area
// coreAreaMM2 (mm²). The paper's chips are 100 (10×10), 198 (18×11) and
// 361 (19×19) cores.
func NewGrid(cols, rows int, coreAreaMM2 float64) (*Floorplan, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("%w: grid %dx%d", ErrInvalid, cols, rows)
	}
	if coreAreaMM2 <= 0 || math.IsInf(coreAreaMM2, 0) || math.IsNaN(coreAreaMM2) {
		return nil, fmt.Errorf("%w: core area %g mm²", ErrInvalid, coreAreaMM2)
	}
	side := math.Sqrt(coreAreaMM2 * 1e-6) // metres
	fp := &Floorplan{
		DieW: side * float64(cols),
		DieH: side * float64(rows),
		Cols: cols,
		Rows: rows,
	}
	fp.Blocks = make([]Block, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			fp.Blocks = append(fp.Blocks, Block{
				Name: fmt.Sprintf("core_%d_%d", r, c),
				X:    float64(c) * side,
				Y:    float64(r) * side,
				W:    side,
				H:    side,
				Row:  r,
				Col:  c,
			})
		}
	}
	return fp, nil
}

// GridForCoreCount returns the grid dimensions used by the paper for its
// core counts: 100 → 10×10, 198 → 18×11, 361 → 19×19. Other counts get the
// most-square factorization (falling back to ceil(sqrt)×ceil(sqrt) with
// trailing cores trimmed is NOT done: the count must factor exactly).
func GridForCoreCount(n int) (cols, rows int, err error) {
	switch n {
	case 100:
		return 10, 10, nil
	case 198:
		return 18, 11, nil
	case 361:
		return 19, 19, nil
	}
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: core count %d", ErrInvalid, n)
	}
	best := 0
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	if best == 1 && n > 3 {
		return 0, 0, fmt.Errorf("%w: core count %d has no near-square factorization", ErrInvalid, n)
	}
	return n / best, best, nil
}

// NewGridForCount builds the paper-standard grid for n cores.
func NewGridForCount(n int, coreAreaMM2 float64) (*Floorplan, error) {
	cols, rows, err := GridForCoreCount(n)
	if err != nil {
		return nil, err
	}
	return NewGrid(cols, rows, coreAreaMM2)
}

// NumBlocks returns the number of blocks.
func (fp *Floorplan) NumBlocks() int { return len(fp.Blocks) }

// TotalAreaMM2 returns the summed block area in mm².
func (fp *Floorplan) TotalAreaMM2() float64 {
	var a float64
	for _, b := range fp.Blocks {
		a += b.Area()
	}
	return a * 1e6
}

// Index returns the block index at grid position (row, col), or -1.
func (fp *Floorplan) Index(row, col int) int {
	if fp.Cols == 0 || row < 0 || col < 0 || row >= fp.Rows || col >= fp.Cols {
		return -1
	}
	return row*fp.Cols + col
}

// Distance returns the centre-to-centre Euclidean distance between blocks
// i and j in metres.
func (fp *Floorplan) Distance(i, j int) float64 {
	a, b := fp.Blocks[i], fp.Blocks[j]
	dx := a.CenterX() - b.CenterX()
	dy := a.CenterY() - b.CenterY()
	return math.Hypot(dx, dy)
}

// Validate checks the plan for overlapping or out-of-die blocks and
// duplicate names.
func (fp *Floorplan) Validate() error {
	if len(fp.Blocks) == 0 {
		return fmt.Errorf("%w: empty floorplan", ErrInvalid)
	}
	names := make(map[string]bool, len(fp.Blocks))
	// Tolerate 1 nm of slack: the .flp text format rounds coordinates to
	// nanometres, so round-tripped plans may "overlap" by that much.
	const eps = 2e-9
	for i, b := range fp.Blocks {
		if b.W <= 0 || b.H <= 0 {
			return fmt.Errorf("%w: block %q has non-positive size", ErrInvalid, b.Name)
		}
		if b.X < -eps || b.Y < -eps || b.X+b.W > fp.DieW+1e-9 || b.Y+b.H > fp.DieH+1e-9 {
			return fmt.Errorf("%w: block %q outside die", ErrInvalid, b.Name)
		}
		if names[b.Name] {
			return fmt.Errorf("%w: duplicate block name %q", ErrInvalid, b.Name)
		}
		names[b.Name] = true
		for j := i + 1; j < len(fp.Blocks); j++ {
			o := fp.Blocks[j]
			if b.X < o.X+o.W-eps && o.X < b.X+b.W-eps &&
				b.Y < o.Y+o.H-eps && o.Y < b.Y+b.H-eps {
				return fmt.Errorf("%w: blocks %q and %q overlap", ErrInvalid, b.Name, o.Name)
			}
		}
	}
	return nil
}

// SortedByName returns block indices ordered by block name; .flp output
// uses this ordering for determinism.
func (fp *Floorplan) SortedByName() []int {
	idx := make([]int, len(fp.Blocks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return fp.Blocks[idx[a]].Name < fp.Blocks[idx[b]].Name })
	return idx
}
