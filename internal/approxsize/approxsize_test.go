package approxsize

import (
	"math"
	"testing"

	"github.com/popsim/popsize/internal/pop"
)

// TestConvergesToMultiplicativeEstimate checks the [2]-style guarantee in
// the randomized model: k ∈ [log n − log ln n, 2 log n] w.h.p., reached in
// O(log n) time.
func TestConvergesToMultiplicativeEstimate(t *testing.T) {
	const n = 4096
	logN := math.Log2(n)
	lo := logN - math.Log2(math.Log(n))
	hi := 2 * logN
	bad := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		s := pop.New(n, Initial, Rule, pop.WithSeed(seed))
		ok, at := s.RunUntil(Converged, 1, 100*logN)
		if !ok {
			t.Fatalf("seed %d: max did not propagate", seed)
		}
		if at > 10*logN {
			t.Errorf("seed %d: propagation took %.1f > 10 log n", seed, at)
		}
		k := float64(s.Agent(0).K)
		if k < lo || k > hi {
			bad++
		}
	}
	// The two one-sided failure probabilities are each < 1/n; with 20
	// trials at n=4096 even one failure would be surprising, but allow it.
	if bad > 1 {
		t.Errorf("%d/%d trials outside [log n − log ln n, 2 log n]", bad, trials)
	}
}

// TestMonotone: the propagated value never decreases at any agent.
func TestMonotone(t *testing.T) {
	rec, sen := State{K: 3}, State{K: 8}
	gr, gs := Rule(rec, sen, nil)
	if gr.K != 8 || gs.K != 8 {
		t.Errorf("Rule() = %d,%d; want 8,8", gr.K, gs.K)
	}
}
