package leaderterm

import (
	"math"
	"testing"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// TestTerminationAfterConvergence is the point of Theorem 3.13: with an
// initial leader the termination signal fires only after the embedded main
// protocol has converged (w.h.p.; we demand it across all seeds tried).
func TestTerminationAfterConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	p := MustNew(core.FastConfig(), 0)
	for _, n := range []int{128, 512} {
		for seed := uint64(0); seed < 4; seed++ {
			s := p.NewEngine(n, pop.WithSeed(seed))
			budget := 20 * p.Main().DefaultMaxTime(n)
			convergedFirst := false
			ok, at := s.RunUntil(func(s pop.Engine[State]) bool {
				if Terminated(s) {
					return true
				}
				if !convergedFirst && p.MainConverged(s) {
					convergedFirst = true
				}
				return false
			}, 1, budget)
			if !ok {
				t.Fatalf("n=%d seed=%d: never terminated within %.0f", n, seed, budget)
			}
			if !convergedFirst && !p.MainConverged(s) {
				t.Errorf("n=%d seed=%d: terminated at %.0f before main convergence", n, seed, at)
			}
		}
	}
}

// TestSignalSpreads: after the leader terminates, the signal reaches the
// whole population in O(log n) time.
func TestSignalSpreads(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	p := MustNew(core.FastConfig(), 0)
	const n = 256
	s := p.NewEngine(n, pop.WithSeed(9))
	ok, _ := s.RunUntil(Terminated, 1, 20*p.Main().DefaultMaxTime(n))
	if !ok {
		t.Fatal("never terminated")
	}
	ok, _ = s.RunUntil(AllTerminated, 1, 50*math.Log2(n))
	if !ok {
		t.Error("termination signal did not reach all agents in O(log n) time")
	}
}

// TestTimerResetOnEstimateGrowth: a leader that learns a larger logSize2
// loses its timer progress (the restart scheme).
func TestTimerResetOnEstimateGrowth(t *testing.T) {
	p := MustNew(core.FastConfig(), 0)
	leader := State{Main: core.State{Role: core.RoleA, LogSize2: 3, GR: 1}, Leader: true, Timer: 500}
	other := State{Main: core.State{Role: core.RoleS, LogSize2: 12}}
	got, _ := p.Rule(leader, other, testRand())
	if got.Main.LogSize2 != 12 {
		t.Fatalf("leader did not adopt larger logSize2: %+v", got)
	}
	if got.Timer != 1 {
		t.Errorf("leader timer = %d after estimate growth, want 1 (reset + this tick)", got.Timer)
	}
}

// TestOnlyLeaderTicks: follower timers never advance.
func TestOnlyLeaderTicks(t *testing.T) {
	p := MustNew(core.FastConfig(), 0)
	a := State{Main: core.Initial()}
	b := State{Main: core.Initial()}
	ga, gb := p.Rule(a, b, testRand())
	if ga.Timer != 0 || gb.Timer != 0 {
		t.Errorf("follower timers advanced: %d, %d", ga.Timer, gb.Timer)
	}
}
