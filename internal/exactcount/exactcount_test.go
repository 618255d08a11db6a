package exactcount

import (
	"testing"

	"github.com/popsim/popsize/internal/pop"
)

// TestExactCount: the leader terminates with exactly n counted, across
// sizes and seeds.
func TestExactCount(t *testing.T) {
	p := New(0)
	for _, n := range []int{2, 5, 17, 64, 200} {
		for seed := uint64(0); seed < 3; seed++ {
			s := p.NewEngine(n, pop.WithSeed(seed))
			ok, _ := s.RunUntil(Terminated, 5, float64(2000*n))
			if !ok {
				t.Fatalf("n=%d seed=%d: never terminated", n, seed)
			}
			if got := LeaderCount(s); got != n {
				t.Errorf("n=%d seed=%d: terminated with count %d", n, seed, got)
			}
		}
	}
}

// TestCountNeverExceedsN: the tally is bounded by the population size in
// every reachable configuration.
func TestCountNeverExceedsN(t *testing.T) {
	p := New(0)
	const n = 50
	s := p.NewEngine(n, pop.WithSeed(1))
	for i := 0; i < 100; i++ {
		s.RunTime(2)
		if c := LeaderCount(s); c > n {
			t.Fatalf("count %d > n at time %.0f", c, s.Time())
		}
	}
}

// TestTimeGrowsSuperlogarithmically: counting takes Θ(n log n) time, vastly
// more than the estimation protocol's polylog — the E16 crossover.
func TestTimeGrowsSuperlogarithmically(t *testing.T) {
	p := New(0)
	timeFor := func(n int) float64 {
		var total float64
		const trials = 3
		for seed := uint64(0); seed < trials; seed++ {
			s := p.NewEngine(n, pop.WithSeed(seed))
			ok, at := s.RunUntil(Terminated, 5, float64(5000*n))
			if !ok {
				t.Fatalf("n=%d: never terminated", n)
			}
			total += at
		}
		return total / trials
	}
	t64, t512 := timeFor(64), timeFor(512)
	// Θ(n log n) predicts a factor ≈ 8·(9/6) = 12; anything clearly
	// superlinear in n/„log-ish“ terms passes.
	if ratio := t512 / t64; ratio < 5 {
		t.Errorf("time ratio (512 vs 64) = %.1f, want >= 5 (Θ(n log n) growth)", ratio)
	}
}
