package arith

import (
	"testing"

	"github.com/popsim/popsize/internal/pop"
)

func TestDoubleComputes2x(t *testing.T) {
	for _, tc := range []struct{ n, x int }{{100, 10}, {1000, 500}, {64, 1}} {
		s := NewDoubleEngine(tc.n, tc.x, pop.WithSeed(1))
		at, ok := CompletionTime(s, false, 1e6)
		if !ok {
			t.Fatalf("n=%d x=%d: doubling did not complete (t=%.0f)", tc.n, tc.x, at)
		}
		if y := Count(s, Y); y != 2*tc.x {
			t.Errorf("n=%d x=%d: produced %d Y, want %d", tc.n, tc.x, y, 2*tc.x)
		}
	}
}

func TestHalveComputesHalf(t *testing.T) {
	for _, tc := range []struct{ n, x int }{{100, 10}, {200, 51}} {
		odd := tc.x%2 == 1
		s := NewHalveEngine(tc.n, tc.x, pop.WithSeed(2))
		_, ok := CompletionTime(s, odd, 1e7)
		if !ok {
			t.Fatalf("n=%d x=%d: halving did not complete", tc.n, tc.x)
		}
		if y := Count(s, Y); y != tc.x/2 {
			t.Errorf("n=%d x=%d: produced %d Y, want %d", tc.n, tc.x, y, tc.x/2)
		}
	}
}

func TestInputValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-full doubling did not panic")
		}
	}()
	NewDoubleEngine(10, 6)
}

// TestTimeShapes reproduces the introduction's separation: doubling
// completes in O(log n) while halving needs Ω(n) — at n = 4096 the gap is
// already two orders of magnitude.
func TestTimeShapes(t *testing.T) {
	const n = 4096
	var dsum, hsum float64
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		d := NewDoubleEngine(n, n/4, pop.WithSeed(seed))
		at, ok := CompletionTime(d, false, 1e6)
		if !ok {
			t.Fatal("doubling did not complete")
		}
		dsum += at

		h := NewHalveEngine(n, n/4, pop.WithSeed(seed))
		at, ok = CompletionTime(h, false, 1e7)
		if !ok {
			t.Fatal("halving did not complete")
		}
		hsum += at
	}
	if ratio := hsum / dsum; ratio < 20 {
		t.Errorf("halving/doubling time ratio = %.1f, want >= 20 (O(n) vs O(log n))", ratio)
	}
}
