package epidemic

import (
	"math"
	"testing"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/prob"
)

func TestRulePropagatesMax(t *testing.T) {
	tests := []struct {
		name     string
		rec, sen State
		wantRec  int
		wantSen  int
	}{
		{"rec adopts", State{Val: 0, Member: true}, State{Val: 5, Member: true}, 5, 5},
		{"sen adopts", State{Val: 7, Member: true}, State{Val: 2, Member: true}, 7, 7},
		{"equal", State{Val: 3, Member: true}, State{Val: 3, Member: true}, 3, 3},
		{"non-member rec", State{Val: 0}, State{Val: 5, Member: true}, 0, 5},
		{"non-member sen", State{Val: 0, Member: true}, State{Val: 5}, 0, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gr, gs := Rule(tt.rec, tt.sen, nil)
			if gr.Val != tt.wantRec || gs.Val != tt.wantSen {
				t.Errorf("Rule() = %d,%d; want %d,%d", gr.Val, gs.Val, tt.wantRec, tt.wantSen)
			}
		})
	}
}

// TestCompletionNearHarmonic compares the average epidemic completion time
// with Lemma A.1's E[T] = (n−1)/n · H_{n−1}.
func TestCompletionNearHarmonic(t *testing.T) {
	const n, trials = 1000, 20
	want := prob.ExpectedEpidemicTime(n)
	sum := 0.0
	for seed := uint64(0); seed < trials; seed++ {
		s := NewEngine(n, 1, pop.WithSeed(seed))
		at, ok := CompletionTime(s, 100*want)
		if !ok {
			t.Fatalf("seed %d: epidemic did not complete", seed)
		}
		sum += at
	}
	got := sum / trials
	if got < 0.5*want || got > 1.6*want {
		t.Errorf("mean completion time %.2f not within [0.5, 1.6]×E[T]=%.2f", got, want)
	}
}

// TestUpperTailBound checks Corollary 3.5: an epidemic among n/3 agents
// exceeds 24 ln n time with probability < 27 n⁻³ — i.e. never, at these
// trial counts.
func TestUpperTailBound(t *testing.T) {
	const n, trials = 600, 25
	bound := 24 * math.Log(float64(n))
	for seed := uint64(0); seed < trials; seed++ {
		s := NewSubpopEngine(n, n/3, 1, pop.WithSeed(seed))
		at, ok := CompletionTime(s, 4*bound)
		if !ok {
			t.Fatalf("seed %d: subpopulation epidemic did not complete", seed)
		}
		if at > bound {
			t.Errorf("seed %d: subpopulation epidemic took %.1f > 24 ln n = %.1f", seed, at, bound)
		}
	}
}

// TestSubpopulationSlowdown measures the slowdown from confining an
// epidemic to a = n/c of the population. Dimensional analysis (and this
// measurement) give expected parallel time (n−1)·H_{a−1}/a ≈ c·ln a — a
// slowdown factor of ≈ c·(ln a/ln n), NOT the c² that a literal reading of
// Corollary 3.4's E[T] formula suggests (the corollary multiplies a
// parallel time by an interaction-count ratio; its w.h.p. conclusion that
// 24·ln n suffices for c = 3 is conservative and still holds — see
// TestUpperTailBound).
func TestSubpopulationSlowdown(t *testing.T) {
	const n, trials = 900, 15
	var full, sub float64
	for seed := uint64(0); seed < trials; seed++ {
		f := NewEngine(n, 1, pop.WithSeed(seed))
		at, ok := CompletionTime(f, 1e6)
		if !ok {
			t.Fatal("full epidemic did not complete")
		}
		full += at

		sb := NewSubpopEngine(n, n/3, 1, pop.WithSeed(seed+1000))
		at, ok = CompletionTime(sb, 1e6)
		if !ok {
			t.Fatal("subpopulation epidemic did not complete")
		}
		sub += at
	}
	ratio := sub / full
	lnA, lnN := math.Log(float64(n)/3), math.Log(float64(n))
	want := 3 * lnA / lnN
	if ratio < 0.6*want || ratio > 1.7*want {
		t.Errorf("subpopulation slowdown ratio = %.2f, want ≈ c·ln a/ln n = %.2f", ratio, want)
	}
}
