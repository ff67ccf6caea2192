package sim

import (
	"context"
	"errors"
	"testing"
)

// shapeCtrl returns a decision of a fixed shape; bad shapes must retire
// the lane with ErrRun, never panic.
type shapeCtrl struct{ start, next Decision }

func (c shapeCtrl) Start() Decision           { return c.start }
func (c shapeCtrl) Next(Observation) Decision { return c.next }

func TestRunLanesRejectsDecisionShape(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	n := len(plan.Placements)
	good := Decision{Levels: make([]int, n)}
	cases := []struct {
		name string
		ctrl shapeCtrl
	}{
		{"start too few levels", shapeCtrl{start: Decision{Levels: make([]int, n-1)}, next: good}},
		{"next too many levels", shapeCtrl{start: good, next: Decision{Levels: make([]int, n+1)}}},
		{"next wrong gate count", shapeCtrl{start: good, next: Decision{Levels: make([]int, n), Gated: make([]bool, 1)}}},
		{"next no levels", shapeCtrl{start: good, next: Decision{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lane := &Lane{Plans: StaticPlan{Plan: plan}, Ctrl: tc.ctrl, Ladder: p.Ladder}
			peer := &Lane{Plans: StaticPlan{Plan: plan}, Ctrl: ChipWide(fixedLevel(2), p.Ladder, n), Ladder: p.Ladder}
			if err := RunLanes(context.Background(), p, []*Lane{lane, peer}, Options{Duration: 0.005}); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(lane.Err, ErrRun) {
				t.Fatalf("lane error %v, want ErrRun", lane.Err)
			}
			if peer.Err != nil || peer.Result.AvgGIPS <= 0 {
				t.Fatalf("peer lane disturbed: err=%v gips=%v", peer.Err, peer.Result.AvgGIPS)
			}
		})
	}
}

func TestRunLanesValidation(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	ctx := context.Background()
	lane := func() *Lane {
		return &Lane{Plans: StaticPlan{Plan: plan}, Ctrl: ChipWide(fixedLevel(0), p.Ladder, len(plan.Placements)), Ladder: p.Ladder}
	}
	if err := RunLanes(ctx, nil, []*Lane{lane()}, Options{Duration: 1}); !errors.Is(err, ErrRun) {
		t.Errorf("nil platform: %v", err)
	}
	if err := RunLanes(ctx, p, []*Lane{lane()}, Options{}); !errors.Is(err, ErrRun) {
		t.Errorf("zero duration: %v", err)
	}
	noLadder := lane()
	noLadder.Ladder = nil
	if err := RunLanes(ctx, p, []*Lane{noLadder}, Options{Duration: 0.005}); err != nil || !errors.Is(noLadder.Err, ErrRun) {
		t.Errorf("nil ladder: err=%v lane=%v", err, noLadder.Err)
	}
}
