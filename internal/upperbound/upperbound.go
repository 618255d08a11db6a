// Package upperbound implements Section 3.3: probability-1 estimation of an
// upper bound on log n. It runs the main Log-Size-Estimation protocol
// alongside a slow, exact backup tournament:
//
//	ℓi, ℓi → ℓi+1, fi+1        fi, fj → fi, fi  (j < i)
//
// Two ℓ-agents at the same level merge; an ℓ-agent at level i represents 2^i
// original agents, so when no equal-level pair remains the live levels are
// exactly the binary representation of n and the maximum level is ⌊log2 n⌋.
// Each agent propagates kex = maxLevel + 1 by epidemic, which therefore
// stabilizes to ⌊log2 n⌋ + 1 >= log2 n with probability 1 (the paper's
// invariant 2^(kex−1) <= n <= 2^kex, see DESIGN.md deviation 5).
//
// The reported value is max(k + 3.7, kex), where k is the main protocol's
// estimate; it converges to a value >= log2 n with probability 1 while
// remaining <= log n + 9.4 w.h.p. (Section 3.3).
package upperbound

import (
	"math/rand/v2"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// SlackBonus is the +3.7 from Section 3.3 added to the main estimate so
// that k >= log n w.h.p., making the overall bound 5.7 + 3.7 = 9.4.
const SlackBonus = 3.7

// State combines the main-protocol state with the backup tournament.
type State struct {
	// Main is the embedded Log-Size-Estimation state.
	Main core.State
	// IsL marks an agent still alive in the merge tournament.
	IsL bool
	// Lvl is the agent's tournament level (represents 2^Lvl agents).
	Lvl uint8
	// Kex is the propagated maximum level + 1; stabilizes to ⌊log2 n⌋+1.
	Kex uint8
}

// Protocol runs the main protocol and the backup tournament side by side.
type Protocol struct {
	main *core.Protocol
}

// New returns the combined protocol over the given main-protocol config.
func New(cfg core.Config) (*Protocol, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Protocol{main: m}, nil
}

// MustNew is New, panicking on an invalid configuration.
func MustNew(cfg core.Config) *Protocol {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Initial returns the uniform initial state: main initial, tournament level
// 0 (every agent starts as ℓ0), kex = 1.
func (p *Protocol) Initial(_ int, _ *rand.Rand) State {
	return State{Main: core.Initial(), IsL: true, Lvl: 0, Kex: 1}
}

// Rule runs the main transition and then the backup tournament plus the
// kex epidemic.
func (p *Protocol) Rule(rec, sen State, r *rand.Rand) (State, State) {
	rec.Main, sen.Main = p.main.Rule(rec.Main, sen.Main, r)

	if rec.IsL && sen.IsL && rec.Lvl == sen.Lvl {
		rec.Lvl++
		sen.IsL = false
		sen.Lvl = rec.Lvl // the fi+1 agent carries the new level's index
	}
	rec.Kex = maxKex(rec)
	sen.Kex = maxKex(sen)
	if rec.Kex < sen.Kex {
		rec.Kex = sen.Kex
	} else if sen.Kex < rec.Kex {
		sen.Kex = rec.Kex
	}
	return rec, sen
}

func maxKex(a State) uint8 {
	if k := a.Lvl + 1; k > a.Kex {
		return k
	}
	return a.Kex
}

// Report returns the agent's current upper-bound estimate
// max(k + 3.7, kex). The boolean reports whether the main protocol has
// produced k yet (before that, the value is kex alone).
func Report(s State) (float64, bool) {
	est, ok := s.Main.Estimate()
	if !ok {
		return float64(s.Kex), false
	}
	if v := est + SlackBonus; v > float64(s.Kex) {
		return v, true
	}
	return float64(s.Kex), true
}

// TournamentDone reports whether no further merge is possible (all live
// ℓ-levels distinct), at which point kex has its exact final value
// ⌊log2 n⌋ + 1.
func TournamentDone(s pop.Engine[State]) bool {
	var lvls [256]int
	for a, cnt := range s.Counts() {
		if a.IsL {
			lvls[a.Lvl] += cnt
			if lvls[a.Lvl] > 1 {
				return false
			}
		}
	}
	return true
}

// Mass returns the tournament invariant Σ 2^Lvl over live ℓ-agents, which
// equals n in every reachable configuration.
func Mass(s pop.Engine[State]) uint64 {
	var m uint64
	for a, cnt := range s.Counts() {
		if a.IsL {
			m += uint64(cnt) << a.Lvl
		}
	}
	return m
}

// NewEngine constructs a simulation engine for the protocol; the backend
// is chosen with pop.WithBackend (default pop.Auto).
func (p *Protocol) NewEngine(n int, opts ...pop.Option) pop.Engine[State] {
	return pop.NewEngine(n, p.Initial, p.Rule, opts...)
}

// Main exposes the embedded main protocol (for convergence predicates).
func (p *Protocol) Main() *core.Protocol { return p.main }
