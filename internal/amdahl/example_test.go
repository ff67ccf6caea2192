package amdahl_test

import (
	"fmt"

	"darksim/internal/amdahl"
)

// ExampleAmdahl_Speedup shows the parallelism wall of the paper's
// Figure 4: with a 62 % parallel fraction (x264's fit), 64 threads buy
// barely 2.6× over one thread.
func ExampleAmdahl_Speedup() {
	law, err := amdahl.NewAmdahl(0.62)
	if err != nil {
		panic(err)
	}
	for _, n := range []int{1, 8, 64} {
		fmt.Printf("S(%d) = %.2f\n", n, law.Speedup(n))
	}
	fmt.Printf("limit = %.2f\n", law.Limit())
	// Output:
	// S(1) = 1.00
	// S(8) = 2.19
	// S(64) = 2.57
	// limit = 2.63
}
