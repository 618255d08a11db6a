package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/popsim/popsize/internal/pop"
)

// TestRuleInvariantsQuick property-checks single-interaction invariants
// over randomized (mostly well-formed) state pairs:
//   - logSize2 never decreases,
//   - an assigned role never changes or reverts to X,
//   - if both agents already share logSize2 (no restart), epochs never
//     decrease.
func TestRuleInvariantsQuick(t *testing.T) {
	p := MustNew(FastConfig())
	r := testRand()
	mk := func(role, ls, gr uint8, tm, ep uint16) State {
		st := State{Role: Role(role%3 + 1), LogSize2: ls%20 + 1, GR: gr%20 + 1,
			Time: tm % 2000, Epoch: ep % 60}
		if st.Role == RoleX {
			// The only reachable undecided state is the initial one.
			st = Initial()
		}
		return st
	}
	f := func(roleR, roleS, lsR, lsS, grR, grS uint8, timeR, timeS, epR, epS uint16) bool {
		rec := mk(roleR, lsR, grR, timeR, epR)
		sen := mk(roleS, lsS, grS, timeS, epS)
		gotR, gotS := p.Rule(rec, sen, r)

		if gotR.LogSize2 < rec.LogSize2 || gotS.LogSize2 < sen.LogSize2 {
			return false
		}
		if rec.Role != RoleX && gotR.Role != rec.Role {
			return false
		}
		if sen.Role != RoleX && gotS.Role != sen.Role {
			return false
		}
		if gotR.Role == RoleX || gotS.Role == RoleX {
			return false // partition always assigns roles on first contact
		}
		// Epoch monotonicity holds when no restart can fire: both agents
		// decided (an X partner redraws logSize2 on role assignment) and
		// already sharing the same estimate.
		if rec.Role != RoleX && sen.Role != RoleX && rec.LogSize2 == sen.LogSize2 {
			if gotR.Epoch < rec.Epoch || gotS.Epoch < sen.Epoch {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRunInvariants checks configuration-level invariants along a real
// execution:
//   - within each logSize2 group, no A agent's epoch exceeds the group's
//     maximum S epoch (A epochs advance only through S agents),
//   - S agents never exceed the epoch target, and Sum is 0 iff Epoch is 0,
//   - HasOutput implies OutK equals the agent's epoch target.
func TestRunInvariants(t *testing.T) {
	p := MustNew(FastConfig())
	const n = 400
	s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(13))
	deadline := p.DefaultMaxTime(n)
	for s.Time() < deadline {
		s.RunTime(math.Log2(n))
		maxSEpoch := map[uint8]uint16{}
		for _, a := range s.Agents() {
			if a.Role == RoleS && a.Epoch > maxSEpoch[a.LogSize2] {
				maxSEpoch[a.LogSize2] = a.Epoch
			}
		}
		for i, a := range s.Agents() {
			switch a.Role {
			case RoleA:
				if a.Epoch > maxSEpoch[a.LogSize2] {
					t.Fatalf("t=%.0f agent %d: A epoch %d > max S epoch %d in group %d",
						s.Time(), i, a.Epoch, maxSEpoch[a.LogSize2], a.LogSize2)
				}
			case RoleS:
				k := p.cfg.EpochTarget(a.LogSize2)
				if uint32(a.Epoch) > k {
					t.Fatalf("t=%.0f agent %d: S epoch %d > target %d", s.Time(), i, a.Epoch, k)
				}
				if (a.Epoch == 0) != (a.Sum == 0) {
					t.Fatalf("t=%.0f agent %d: S epoch %d with sum %d", s.Time(), i, a.Epoch, a.Sum)
				}
			}
			if a.HasOutput {
				if uint32(a.OutK) != p.cfg.EpochTarget(a.LogSize2) {
					t.Fatalf("t=%.0f agent %d: OutK %d != target %d",
						s.Time(), i, a.OutK, p.cfg.EpochTarget(a.LogSize2))
				}
			}
		}
		if p.Converged(s) {
			return
		}
	}
	t.Fatal("run did not converge within the default budget")
}

// TestTinyPopulations: the protocol still converges for the smallest legal
// populations (n = 2, 3), where role counts are maximally skewed.
func TestTinyPopulations(t *testing.T) {
	p := MustNew(FastConfig())
	for _, n := range []int{2, 3, 4} {
		for seed := uint64(0); seed < 3; seed++ {
			res := p.Run(n, core_runOpts(seed))
			if !res.Converged {
				t.Errorf("n=%d seed=%d: did not converge", n, seed)
			}
		}
	}
}

func core_runOpts(seed uint64) RunOptions {
	return RunOptions{Seed: seed, MaxTime: 50000}
}
