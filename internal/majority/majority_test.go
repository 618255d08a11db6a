package majority

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/popsim/popsize/internal/compose"
	"github.com/popsim/popsize/internal/pop"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(41, 42)) }

func TestCancellation(t *testing.T) {
	a := State{Input: 1, Sign: 1, Level: 2, Output: 1}
	b := State{Input: -1, Sign: -1, Level: 2, Output: -1}
	ga, gb := Transition(a, b, 3, 10, testRand())
	if ga.Sign != 0 || gb.Sign != 0 {
		t.Errorf("equal-level opposites did not cancel: %+v %+v", ga, gb)
	}
}

func TestNoCancelAcrossLevels(t *testing.T) {
	a := State{Input: 1, Sign: 1, Level: 1}
	b := State{Input: -1, Sign: -1, Level: 2}
	ga, gb := Transition(a, b, 3, 10, testRand())
	if ga.Sign == 0 || gb.Sign == 0 {
		t.Errorf("different-level opposites cancelled: %+v %+v", ga, gb)
	}
}

func TestSplitRespectsStageCap(t *testing.T) {
	token := State{Input: 1, Sign: 1, Level: 0}
	blank := State{Input: -1, Sign: 0}
	// Stage 0: cap 0, no split allowed.
	ga, gb := Transition(token, blank, 0, 10, testRand())
	if gb.Sign != 0 {
		t.Fatalf("split happened at stage 0: %+v %+v", ga, gb)
	}
	// Stage 2: cap 2, split allowed.
	ga, gb = Transition(token, blank, 2, 10, testRand())
	if ga.Level != 1 || gb.Sign != 1 || gb.Level != 1 {
		t.Errorf("split wrong: %+v %+v", ga, gb)
	}
	// Estimate caps the level even at later stages.
	deep := State{Input: 1, Sign: 1, Level: 3}
	ga, gb = Transition(deep, blank, 9, 3, testRand())
	if ga.Level != 3 || gb.Sign != 0 {
		t.Errorf("split beyond estimate cap: %+v %+v", ga, gb)
	}
}

// TestWeightConservation: cancellation and splitting preserve the signed
// weight sum exactly (property-based over random small configurations).
func TestWeightConservation(t *testing.T) {
	const cap = 10
	r := testRand()
	f := func(signs [6]int8, levels [6]uint8, stage uint8) bool {
		agents := make([]State, len(signs))
		for i := range agents {
			s := signs[i] % 2 // -1, 0, +1
			agents[i] = State{Input: 1, Sign: s, Level: levels[i] % 5}
		}
		before := SignedWeightNumerator(agents, cap)
		// Apply a few random pairwise transitions.
		for k := 0; k < 10; k++ {
			i, j := r.IntN(len(agents)), r.IntN(len(agents)-1)
			if j >= i {
				j++
			}
			agents[i], agents[j] = Transition(agents[i], agents[j], int(stage%12), cap, r)
		}
		return SignedWeightNumerator(agents, cap) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestUniformMajorityEndToEnd: composed with the weak size estimate, the
// protocol computes majority for clear margins without knowing n.
func TestUniformMajorityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	const n = 600
	tests := []struct {
		name   string
		plus   int
		expect int8
	}{
		{"60/40 plus", 360, 1},
		{"40/60 minus", 240, -1},
		{"55/45 plus", 330, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			opinions := make([]int8, n)
			for i := range opinions {
				if i < tt.plus {
					opinions[i] = 1
				} else {
					opinions[i] = -1
				}
			}
			p := compose.MustNew(compose.Config{F: 16}, Downstream(opinions))
			s := p.NewEngine(n, pop.WithSeed(11))
			ok, _ := s.RunUntil(p.Converged, 10, 2e5)
			if !ok {
				t.Fatal("composition did not converge")
			}
			// Let outputs circulate briefly after the last stage.
			s.RunTime(20 * math.Log2(n))
			plus, minus, und := Outputs(s)
			correct := plus
			if tt.expect == -1 {
				correct = minus
			}
			if und > 0 || correct < n*95/100 {
				t.Errorf("outputs +%d/−%d/?%d, want >=95%% for sign %+d", plus, minus, und, tt.expect)
			}
		})
	}
}
