package synthcoin

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/popsim/popsize/internal/pop"
)

func TestConfigValidate(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Errorf("PaperConfig invalid: %v", err)
	}
	if err := (Config{ClockFactor: 0, EpochFactor: 5}).Validate(); err == nil {
		t.Error("zero ClockFactor accepted")
	}
}

// TestRuleIsDeterministic: the transition function is a pure function of
// the two observed states (the synthetic-coin point of Appendix B).
func TestRuleIsDeterministic(t *testing.T) {
	p := MustNew(FastConfig())
	f := func(roleR, roleS uint8, lsR, lsS, grR, grS uint8, genR, genS bool) bool {
		rec := State{Role: Role(roleR%3 + 1), LogSize2: lsR%40 + 1, GR: grR%40 + 1, LogSize2Gen: genR}
		sen := State{Role: Role(roleS%3 + 1), LogSize2: lsS%40 + 1, GR: grS%40 + 1, LogSize2Gen: genS}
		r1a, r1b := p.Rule(rec, sen, nil)
		r2a, r2b := p.Rule(rec, sen, nil)
		return r1a == r2a && r1b == r2b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGenerateGeometric: an A agent's logSize2 grows while it keeps being
// the sender against F agents and completes (with the +2 bonus) on its
// first receiver interaction.
func TestGenerateGeometric(t *testing.T) {
	a := State{Role: RoleA, LogSize2: 1, GR: 1}
	for i := 0; i < 3; i++ {
		a = generate(a, true)
	}
	if a.LogSize2 != 4 || a.LogSize2Gen {
		t.Fatalf("after 3 sender flips: %+v, want logSize2 4, not generated", a)
	}
	a = generate(a, false)
	if a.LogSize2 != 6 || !a.LogSize2Gen {
		t.Fatalf("after completion: %+v, want logSize2 6 (=4+2), generated", a)
	}
	// gr generation begins next.
	a = generate(a, true)
	a = generate(a, false)
	if a.GR != 2 || !a.GRGen {
		t.Errorf("gr generation: %+v, want gr 2, generated", a)
	}
}

func TestRestartPreservesLogSize2(t *testing.T) {
	a := State{Role: RoleA, LogSize2: 9, LogSize2Gen: true, GR: 5, GRGen: true,
		Time: 44, Epoch: 3, Sum: 17, Done: true}
	got := restart(a)
	if got.LogSize2 != 9 || !got.LogSize2Gen {
		t.Errorf("restart touched logSize2: %+v", got)
	}
	if got.Time != 0 || got.Epoch != 0 || got.Sum != 0 || got.Done || got.GRGen || got.GR != 1 {
		t.Errorf("restart did not reset downstream state: %+v", got)
	}
}

// TestPartitionBalance mirrors the main protocol's Lemma 3.2 check.
func TestPartitionBalance(t *testing.T) {
	p := MustNew(FastConfig())
	const n = 2000
	s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(2))
	s.RunTime(6 * math.Log2(n))
	if x := s.Count(func(a State) bool { return a.Role == RoleX }); x != 0 {
		t.Fatalf("%d agents still undecided", x)
	}
	a := s.Count(func(a State) bool { return a.Role == RoleA })
	if a < n/3 || a > 2*n/3 {
		t.Errorf("|A| = %d outside [n/3, 2n/3]", a)
	}
}

// TestEndToEnd runs the deterministic-transition protocol to convergence
// and checks the estimate quality (Appendix B promises the same error
// bounds as the main protocol).
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs are not short")
	}
	p := MustNew(FastConfig())
	for _, n := range []int{128, 512} {
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(7))
		maxT := 40.0 * float64(p.cfg.ClockFactor*p.cfg.EpochFactor) * math.Log2(float64(n)) * math.Log2(float64(n))
		ok, _ := s.RunUntil(p.Converged, math.Log2(float64(n)), maxT)
		if !ok {
			t.Fatalf("n=%d: did not converge", n)
		}
		logN := math.Log2(float64(n))
		for i, a := range s.Agents() {
			est, has := a.Estimate()
			if a.Role != RoleA {
				continue
			}
			if !has {
				t.Fatalf("n=%d: done A agent %d has no estimate", n, i)
			}
			if math.Abs(est-logN) > 6.7 {
				t.Errorf("n=%d: agent %d estimate %.2f misses log n %.2f by > 6.7", n, i, est, logN)
			}
		}
	}
}
