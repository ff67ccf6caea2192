package amdahl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAmdahlBasics(t *testing.T) {
	a, err := NewAmdahl(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Speedup(1) != 1 {
		t.Errorf("S(1) = %v", a.Speedup(1))
	}
	if a.Speedup(0) != 1 || a.Speedup(-3) != 1 {
		t.Errorf("degenerate thread counts should clamp to 1")
	}
	// S(2) = 1/(0.4 + 0.3) = 1/0.7.
	if got := a.Speedup(2); math.Abs(got-1/0.7) > 1e-12 {
		t.Errorf("S(2) = %v", got)
	}
	// Limit = 1/(1-p) = 2.5.
	if got := a.Limit(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Limit = %v", got)
	}
	perfect, err := NewAmdahl(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := perfect.Speedup(8); math.Abs(got-8) > 1e-12 {
		t.Errorf("perfect S(8) = %v", got)
	}
	if !math.IsInf(perfect.Limit(), 1) {
		t.Errorf("perfect limit should be +Inf")
	}
	serial, err := NewAmdahl(0)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Speedup(64) != 1 {
		t.Errorf("serial S(64) = %v", serial.Speedup(64))
	}
}

func TestNewAmdahlErrors(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewAmdahl(p); err == nil {
			t.Errorf("p=%v should error", p)
		}
	}
}

// Property: Amdahl speed-up is within [1, n] and monotone in n.
func TestAmdahlBoundsProperty(t *testing.T) {
	f := func(praw float64, nraw uint8) bool {
		p := math.Mod(math.Abs(praw), 1)
		n := 1 + int(nraw)%64
		a, err := NewAmdahl(p)
		if err != nil {
			return false
		}
		s := a.Speedup(n)
		if s < 1-1e-12 || s > float64(n)+1e-12 {
			return false
		}
		return a.Speedup(n+1) >= s-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}
