package leaderelect

import (
	"testing"

	"github.com/popsim/popsize/internal/compose"
	"github.com/popsim/popsize/internal/pop"
)

// TestAtLeastOneCandidateSurvives: elimination never removes the last
// candidate — the max-level candidate can only lose a coin-flip tiebreak,
// which requires another candidate at the same level to survive it.
func TestAtLeastOneCandidateSurvives(t *testing.T) {
	p := compose.MustNew(compose.Config{F: 16}, Downstream())
	const n = 400
	s := p.NewEngine(n, pop.WithSeed(17))
	for i := 0; i < 60; i++ {
		s.RunTime(10)
		if c := Candidates(s); c < 1 {
			t.Fatalf("no candidates left at time %.0f", s.Time())
		}
	}
}

// TestElectsUniqueLeader: after the composed stages complete, exactly one
// candidate remains (w.h.p.; asserted across seeds).
func TestElectsUniqueLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	const n = 400
	for seed := uint64(0); seed < 4; seed++ {
		p := compose.MustNew(compose.Config{F: 16}, Downstream())
		s := p.NewEngine(n, pop.WithSeed(seed))
		ok, _ := s.RunUntil(p.Converged, 10, 2e5)
		if !ok {
			t.Fatalf("seed %d: composition did not converge", seed)
		}
		// The coin-flip tiebreak keeps running; give it a little time.
		ok, _ = s.RunUntil(func(s pop.Engine[compose.State[State]]) bool {
			return Candidates(s) == 1
		}, 10, 1e5)
		if !ok {
			t.Errorf("seed %d: %d candidates remain", seed, Candidates(s))
		}
	}
}

// TestEliminationDominance: a candidate strictly below the observed
// maximum drops out.
func TestEliminationDominance(t *testing.T) {
	r := testRandFor()
	rec := State{Candidate: true, Lvl: 2, MaxSeen: 2}
	sen := State{Candidate: false, Lvl: 0, MaxSeen: 7}
	gr, _ := Transition(rec, sen, 0, 0, r)
	if gr.Candidate {
		t.Errorf("dominated candidate survived: %+v", gr)
	}
	if gr.MaxSeen != 7 {
		t.Errorf("max not relayed: %+v", gr)
	}
}
