package upperbound

import (
	"math"
	"math/bits"
	"testing"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// TestMassInvariant: Σ 2^Lvl over live ℓ-agents equals n in every reachable
// configuration (checked along a real execution).
func TestMassInvariant(t *testing.T) {
	p := MustNew(core.FastConfig())
	const n = 300
	s := p.NewEngine(n, pop.WithSeed(4))
	for i := 0; i < 50; i++ {
		s.RunTime(5)
		if m := Mass(s); m != n {
			t.Fatalf("tournament mass = %d at time %.0f, want %d", m, s.Time(), n)
		}
	}
}

// TestKexExact: once the tournament finishes, kex = ⌊log2 n⌋ + 1 exactly —
// the probability-1 guarantee 2^(kex−1) <= n <= 2^kex.
func TestKexExact(t *testing.T) {
	p := MustNew(core.FastConfig())
	for _, n := range []int{2, 3, 7, 8, 33, 100, 128} {
		for seed := uint64(0); seed < 3; seed++ {
			s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(seed))
			ok, _ := s.RunUntil(TournamentDone, 5, float64(200*n))
			if !ok {
				t.Fatalf("n=%d seed=%d: tournament did not finish", n, seed)
			}
			// Let kex propagate to everyone.
			s.RunTime(40 * math.Log2(float64(n)+2))
			want := uint8(bits.Len(uint(n))) // ⌊log2 n⌋ + 1
			for i, a := range s.Agents() {
				if a.Kex != want {
					t.Fatalf("n=%d seed=%d agent %d: kex = %d, want %d", n, seed, i, a.Kex, want)
				}
			}
		}
	}
}

// TestUpperBoundHolds: after stabilization, every agent's report is an
// upper bound on log2 n (the probability-1 correctness of Section 3.3).
func TestUpperBoundHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs are not short")
	}
	p := MustNew(core.FastConfig())
	const n = 200
	logN := math.Log2(n)
	for seed := uint64(0); seed < 5; seed++ {
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(seed))
		ok, _ := s.RunUntil(TournamentDone, 10, float64(500*n))
		if !ok {
			t.Fatalf("seed %d: tournament did not finish", seed)
		}
		s.RunTime(60 * math.Log2(n))
		for i, a := range s.Agents() {
			v, _ := Report(a)
			if v < logN {
				t.Errorf("seed %d agent %d: report %.2f < log n = %.2f", seed, i, v, logN)
			}
		}
	}
}

// TestReportPrefersLargest verifies the max(k+3.7, kex) arithmetic.
func TestReportPrefersLargest(t *testing.T) {
	mainOut := core.State{HasOutput: true, OutSum: 36, OutK: 4} // estimate 10
	tests := []struct {
		name string
		st   State
		want float64
	}{
		{"main wins", State{Main: mainOut, Kex: 5}, 10 + SlackBonus},
		{"kex wins", State{Main: mainOut, Kex: 20}, 20},
		{"no main output", State{Main: core.State{}, Kex: 7}, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got, _ := Report(tt.st); got != tt.want {
				t.Errorf("Report() = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestMergeRule: equal-level ℓ agents merge into ℓ(i+1) and f(i+1).
func TestMergeRule(t *testing.T) {
	p := MustNew(core.FastConfig())
	a := p.Initial(0, nil)
	b := p.Initial(1, nil)
	a.Lvl, b.Lvl = 3, 3
	ga, gb := p.Rule(a, b, testRand())
	if !ga.IsL || ga.Lvl != 4 {
		t.Errorf("winner = %+v, want live ℓ4", ga)
	}
	if gb.IsL || gb.Lvl != 4 {
		t.Errorf("loser = %+v, want dead f4", gb)
	}
	if ga.Kex != 5 || gb.Kex != 5 {
		t.Errorf("kex = %d,%d; want 5,5", ga.Kex, gb.Kex)
	}
}
