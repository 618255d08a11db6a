package popsize

import (
	"math"
	"testing"

	"github.com/popsim/popsize/internal/pop"
)

// TestGoldenSequentialRun pins the exact Result of a seeded sequential run
// — a determinism regression for the reference engine and everything
// upstream of it (state layout, rule logic, scheduler randomness order).
// These values were produced by the pre-refactor engine; if this test
// fails, the sequential engine's randomness stream changed and every
// seeded experiment in EXPERIMENTS.md is silently invalidated.
func TestGoldenSequentialRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	est, err := New(FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		n         int
		time      float64
		estimate  float64
		maxErr    float64
		countA    int
		logSize2  int
		converged bool
	}{
		{500, 1344.6, 11.600000000000062, 2.6342157153379127, 247, 8, true},
		{2000, 3048.409, 12.56666666666659, 1.6008823820045794, 1002, 13, true},
	}
	for _, c := range cases {
		r := est.Run(c.n, RunOptions{Seed: 42, Backend: pop.Sequential})
		// Time, CountA and LogSize2 are exact functions of the randomness
		// stream and are pinned bit-for-bit; the two means are pinned to
		// within float-summation reordering noise.
		if r.Converged != c.converged || r.Time != c.time ||
			r.CountA != c.countA || r.LogSize2 != c.logSize2 ||
			math.Abs(r.Estimate-c.estimate) > 1e-9 || math.Abs(r.MaxErr-c.maxErr) > 1e-9 {
			t.Errorf("golden run n=%d diverged:\n got %+v\nwant %+v", c.n, r, c)
		}
	}
}

// TestGoldenBatchedRunStable pins the batched engine's own seeded output
// (self-determinism across releases; the value may legitimately change if
// the batching algorithm's randomness order changes, in which case update
// it alongside a fresh cross-backend equivalence run).
func TestGoldenBatchedRunStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	est, err := New(FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	r1 := est.Run(1000, RunOptions{Seed: 42, Backend: pop.Batched})
	r2 := est.Run(1000, RunOptions{Seed: 42, Backend: pop.Batched})
	if r1 != r2 {
		t.Errorf("batched runs with identical seeds differ: %+v vs %+v", r1, r2)
	}
	if !r1.Converged {
		t.Error("batched golden run did not converge")
	}
	if math.Abs(r1.Estimate-math.Log2(1000)) > ErrorBound+1 {
		t.Errorf("batched golden run estimate %.2f outside bound around %.2f",
			r1.Estimate, math.Log2(1000))
	}
}

func TestEstimateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	est, truth, err := Estimate(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-truth) > ErrorBound+1 {
		t.Errorf("Estimate = %.2f, truth %.2f: error beyond bound+slack", est, truth)
	}
}

// TestEstimatePartialResult: on non-convergence Estimate must return the
// best-effort estimate from the final configuration alongside the error —
// not discard it — so callers can tell "didn't fully converge" from "no
// data". The truncated run is deterministic (sequential backend at this
// size), so the partial estimate is pinned against a direct Run with the
// same options.
func TestEstimatePartialResult(t *testing.T) {
	const n, seed, maxTime = 500, 42, 900 // golden run converges at t≈1345, so 900 truncates
	est, truth, err := estimateWith(n, RunOptions{Seed: seed, MaxTime: maxTime})
	if err == nil {
		t.Fatal("expected a non-convergence error from the truncated run")
	}
	if truth != math.Log2(n) {
		t.Errorf("truth = %v, want log2(%d)", truth, n)
	}
	e, nerr := New(FastConfig())
	if nerr != nil {
		t.Fatal(nerr)
	}
	r := e.Run(n, RunOptions{Seed: seed, MaxTime: maxTime})
	if r.Converged {
		t.Fatal("reference run converged; shrink maxTime")
	}
	if est != r.Estimate {
		t.Errorf("partial estimate = %v, want the run's best effort %v", est, r.Estimate)
	}
}

func TestWeakEstimate(t *testing.T) {
	k, err := WeakEstimate(4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	logN := math.Log2(4096)
	if float64(k) < logN-math.Log2(math.Log(4096))-1 || float64(k) > 2*logN+1 {
		t.Errorf("WeakEstimate = %d outside the [2]-style interval around %.1f", k, logN)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	est, truth, err := EstimateDeterministic(512, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-truth) > ErrorBound+1 {
		t.Errorf("EstimateDeterministic = %.2f, truth %.2f", est, truth)
	}
}

func TestEstimateUpperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	bound, truth, err := EstimateUpperBound(150, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bound < truth {
		t.Errorf("EstimateUpperBound = %.2f < log n = %.2f (probability-1 guarantee broken)", bound, truth)
	}
}

func TestEstimateTerminating(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	res, err := EstimateTerminating(512, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConvergedFirst {
		t.Error("termination fired before convergence")
	}
	logN := math.Log2(512)
	if math.Abs(res.Estimate-logN) > ErrorBound+1 {
		t.Errorf("estimate at termination = %.2f, truth %.2f", res.Estimate, logN)
	}
}

// TestVariantsOnEveryBackend runs the root estimators on each engine
// through their trailing engine options: every call succeeds and meets
// its guarantee on the agent array and on both multiset engines.
func TestVariantsOnEveryBackend(t *testing.T) {
	const n, seed = 300, 7
	logN := math.Log2(n)
	for _, be := range []pop.Backend{pop.Sequential, pop.Batched, pop.Dense} {
		opt := pop.WithBackend(be)
		t.Run("deterministic/"+be.String(), func(t *testing.T) {
			est, _, err := EstimateDeterministic(n, seed, opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est-logN) > ErrorBound {
				t.Errorf("estimate %.3f misses log n = %.3f by more than %.1f", est, logN, ErrorBound)
			}
		})
		t.Run("upperbound/"+be.String(), func(t *testing.T) {
			bound, _, err := EstimateUpperBound(n, seed, opt)
			if err != nil {
				t.Fatal(err)
			}
			if bound < logN {
				t.Errorf("bound %.3f < log n = %.3f (probability-1 guarantee broken)", bound, logN)
			}
		})
		t.Run("terminating/"+be.String(), func(t *testing.T) {
			res, err := EstimateTerminating(n, seed, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.ConvergedFirst {
				t.Error("termination fired before convergence")
			}
		})
		t.Run("weak/"+be.String(), func(t *testing.T) {
			k, err := WeakEstimate(n, seed, opt)
			if err != nil {
				t.Fatal(err)
			}
			if float64(k) < logN-math.Log2(math.Log(n))-1 || float64(k) > 2*logN+1 {
				t.Errorf("k = %d outside the [2]-style interval around log n = %.3f", k, logN)
			}
		})
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestFailureProbability(t *testing.T) {
	if got := FailureProbability(900); got != 0.01 {
		t.Errorf("FailureProbability(900) = %v, want 0.01", got)
	}
}
