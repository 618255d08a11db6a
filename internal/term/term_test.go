package term

import (
	"testing"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/leaderterm"
	"github.com/popsim/popsize/internal/pop"
)

// TestCounterTerminatesFlat is the empirical face of Theorem 4.1: the
// uniform dense counter-terminator's first-termination time is flat in n
// (≈ threshold/2, since each agent has 2 interactions per time unit).
func TestCounterTerminatesFlat(t *testing.T) {
	c := CounterTerminator{Threshold: 40}
	times := make(map[int]float64)
	for _, n := range []int{100, 1000, 10000} {
		s := pop.New(n, c.Initial, c.Rule, pop.WithSeed(5))
		at, ok := FirstTermination(s, Terminated, 0.5, 1000)
		if !ok {
			t.Fatalf("n=%d: never terminated", n)
		}
		times[n] = at
		// Expected ≈ 20 with early-deviation slack: the first of n agents
		// to collect 40 interactions runs ahead of the mean.
		if at < 5 || at > 25 {
			t.Errorf("n=%d: first termination at %.1f, want ≈ threshold/2 = 20 (bracket [5,25])", n, at)
		}
	}
	// Flatness: two orders of magnitude in n change the time by < 2×.
	if r := times[10000] / times[100]; r > 2 || r < 0.5 {
		t.Errorf("first-termination ratio across n = %.2f, want ≈ 1 (flat)", r)
	}
}

// TestLeaderDelaysTermination is the contrast: the leader-driven protocol
// of Theorem 3.13 (allowed because its initial configuration is NOT dense)
// delays termination by Θ(log² n), growing with n.
func TestLeaderDelaysTermination(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	p := leaderterm.MustNew(core.FastConfig(), 0)
	timeFor := func(n int) float64 {
		s := p.NewEngine(n, pop.WithSeed(3))
		at, ok := FirstTermination(s, leaderterm.Terminated, 5, 50*p.Main().DefaultMaxTime(n))
		if !ok {
			t.Fatalf("n=%d: never terminated", n)
		}
		return at
	}
	t128, t4096 := timeFor(128), timeFor(4096)
	if t4096 <= t128 {
		t.Errorf("leader-driven termination not growing: t(4096)=%.0f <= t(128)=%.0f", t4096, t128)
	}
}

// TestTerminationSpreads: once one agent terminates, the flag reaches all
// agents by epidemic.
func TestTerminationSpreads(t *testing.T) {
	c := CounterTerminator{Threshold: 10}
	s := pop.New(500, c.Initial, c.Rule, pop.WithSeed(2))
	_, ok := FirstTermination(s, Terminated, 0.5, 1000)
	if !ok {
		t.Fatal("never terminated")
	}
	ok, _ = s.RunUntil(func(s pop.Engine[CounterState]) bool {
		return s.All(func(a CounterState) bool { return a.Terminated })
	}, 1, 200)
	if !ok {
		t.Error("terminated flag did not reach all agents")
	}
}
