package core

import (
	"testing"

	"github.com/popsim/popsize/internal/pop"
)

// TestRestartStorm is failure injection for the restart scheme: let the
// population converge, then plant a strictly larger logSize2 on one agent
// (as if a huge geometric sample had been delayed). The whole population
// must discard its output and reconverge with the new estimate.
func TestRestartStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	p := MustNew(FastConfig())
	const n = 300
	s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(21))
	ok, _ := s.RunUntil(p.Converged, 5, p.DefaultMaxTime(n))
	if !ok {
		t.Fatal("initial convergence failed")
	}

	// Inject: one agent learns a larger weak estimate.
	snap := s.AgentStates()
	newLS := snap[0].LogSize2 + 3
	victim := snap[42]
	victim.LogSize2 = newLS
	victim = p.restart(victim, testRand())
	snap[42] = victim
	s2 := pop.NewEngineFromConfig(snap, p.Rule, pop.WithSeed(22), pop.WithBackend(pop.Sequential)).(*pop.Sim[State])

	// The storm must spread: soon every agent carries the new estimate
	// with its old output gone, and then reconverges under the new K.
	ok, _ = s2.RunUntil(func(s pop.Engine[State]) bool {
		return s.All(func(a State) bool { return a.LogSize2 == newLS })
	}, 5, 10000)
	if !ok {
		t.Fatal("new estimate did not reach all agents")
	}
	ok, _ = s2.RunUntil(p.Converged, 5, 4*p.DefaultMaxTime(n))
	if !ok {
		t.Fatal("population did not reconverge after restart storm")
	}
	for i, a := range s2.Agents() {
		if uint32(a.OutK) != p.cfg.EpochTarget(newLS) {
			t.Fatalf("agent %d: output K %d is not the post-storm target %d",
				i, a.OutK, p.cfg.EpochTarget(newLS))
		}
	}
}

// TestOutputDoesNotSurviveRestart: HasOutput is cleared by restart, so no
// stale estimate can outlive a weak-estimate update.
func TestOutputDoesNotSurviveRestart(t *testing.T) {
	p := MustNew(PaperConfig())
	a := State{Role: RoleS, LogSize2: 4, Epoch: 30, Sum: 300,
		HasOutput: true, OutSum: 300, OutK: 30}
	b := State{Role: RoleS, LogSize2: 11}
	gotA, _ := p.Rule(a, b, testRand())
	if gotA.HasOutput {
		t.Errorf("stale output survived restart: %+v", gotA)
	}
}
