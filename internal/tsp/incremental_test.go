package tsp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestIncrementalMatchesGiven drives the updater through adds, removes
// and set replacements, checking the maintained TSP against a fresh
// Given evaluation of the same set after every mutation. Row sums only
// differ from Given's by accumulation order, so agreement is to a few
// ULPs, asserted here at 1e-12 relative.
func TestIncrementalMatchesGiven(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	u, err := c.Incremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.TSP(); err == nil {
		t.Errorf("empty set should error")
	}

	rng := rand.New(rand.NewSource(11))
	inSet := make(map[int]bool)
	check := func(op string) {
		t.Helper()
		active := u.active
		if len(active) != len(inSet) {
			t.Fatalf("%s: updater tracks %d cores, test tracks %d", op, len(active), len(inSet))
		}
		got, err := u.TSP()
		if err != nil {
			t.Fatalf("%s: incremental TSP: %v", op, err)
		}
		want, err := c.Given(ctx, active)
		if err != nil {
			t.Fatalf("%s: Given: %v", op, err)
		}
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("%s: incremental %v vs Given %v", op, got, want)
		}
	}

	// 60 random adds interleaved with 20 removes.
	for i := 0; i < 80; i++ {
		if i%4 == 3 && len(inSet) > 0 {
			var cores []int
			for c := range inSet {
				cores = append(cores, c)
			}
			victim := cores[rng.Intn(len(cores))]
			if err := u.Remove(victim); err != nil {
				t.Fatal(err)
			}
			delete(inSet, victim)
			if len(inSet) == 0 {
				continue
			}
			check("remove")
			continue
		}
		core := rng.Intn(100)
		if inSet[core] {
			if err := u.Add(core); err == nil {
				t.Fatalf("double add of %d succeeded", core)
			}
			continue
		}
		if err := u.Add(core); err != nil {
			t.Fatal(err)
		}
		inSet[core] = true
		check("add")
	}

	// SetActive diffs against the current set.
	next := []int{3, 14, 15, 92, 65, 35}
	if err := u.SetActive(next); err != nil {
		t.Fatal(err)
	}
	inSet = map[int]bool{3: true, 14: true, 15: true, 92: true, 65: true, 35: true}
	check("setactive")
	// Idempotent: same set again is a no-op and still correct.
	if err := u.SetActive(next); err != nil {
		t.Fatal(err)
	}
	check("setactive-again")
}

// TestIncrementalAddOnlyBitIdentical pins the strongest form of the
// invariant: when cores were only ever added, in order, the row sums are
// accumulated exactly like Given's and the TSP values are bit-identical.
func TestIncrementalAddOnlyBitIdentical(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	u, err := c.Incremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	active := []int{55, 44, 45, 54, 46, 64, 37}
	for k, core := range active {
		if err := u.Add(core); err != nil {
			t.Fatal(err)
		}
		got, err := u.TSP()
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Given(ctx, active[:k+1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after %d adds: incremental %v != Given %v", k+1, got, want)
		}
	}
}

func TestIncrementalErrors(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.Incremental(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Add(-1); err == nil {
		t.Errorf("negative core should error")
	}
	if err := u.Add(100); err == nil {
		t.Errorf("out-of-range core should error")
	}
	if err := u.Remove(5); err == nil {
		t.Errorf("removing an inactive core should error")
	}
	if err := u.SetActive([]int{1, 1}); err == nil {
		t.Errorf("duplicate cores should error")
	}
	if err := u.SetActive([]int{200}); err == nil {
		t.Errorf("out-of-range set should error")
	}
	// Errors must leave the set untouched.
	if err := u.SetActive([]int{7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := u.SetActive([]int{7, 8, 300}); err == nil {
		t.Errorf("partially invalid set should error")
	}
	got := u.active
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Errorf("failed SetActive mutated the set: %v", got)
	}
}
