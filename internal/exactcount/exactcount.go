// Package exactcount implements a simplified form of Michail's [32]
// uniform terminating exact-size-counting protocol with a pre-elected
// leader, used as the "slow but exact" baseline of experiment E16.
//
// The leader marks each agent it meets as counted and increments a counter.
// It terminates — signals that its count equals n w.h.p. — once it has gone
// TermFactor·count·ln(count+2) of its own interactions without finding an
// uncounted agent (a coupon-collector tail bound: when c agents are counted
// out of n > c, the leader finds an uncounted one within c·ln c tries
// w.h.p., so a longer drought means no uncounted agents remain). Expected
// completion is Θ(n log n) parallel time — slower than the paper's
// estimation protocol by a factor ≈ n/log n, the crossover E16 exhibits.
package exactcount

import (
	"math"
	"math/rand/v2"

	"github.com/popsim/popsize/internal/pop"
)

// DefaultTermFactor is the drought multiplier; 6 keeps the miscount
// probability negligible at the experiment's population sizes.
const DefaultTermFactor = 6

// State is one agent of the counting protocol.
type State struct {
	// Leader marks the unique counting agent.
	Leader bool
	// Counted marks a follower the leader has already seen.
	Counted bool
	// Count is the leader's tally (leader counts itself at start).
	Count uint32
	// Drought is the leader's own-interaction count since the last new
	// agent was counted.
	Drought uint32
	// Terminated is the leader's termination signal, spread by epidemic.
	Terminated bool
}

// Protocol is the counting protocol with a fixed termination factor.
type Protocol struct {
	termFactor float64
}

// New returns a Protocol; termFactor <= 0 selects DefaultTermFactor.
func New(termFactor float64) *Protocol {
	if termFactor <= 0 {
		termFactor = DefaultTermFactor
	}
	return &Protocol{termFactor: termFactor}
}

// Initial places the leader (already counted, count 1) at index 0.
func (p *Protocol) Initial(i int, _ *rand.Rand) State {
	if i == 0 {
		return State{Leader: true, Counted: true, Count: 1}
	}
	return State{}
}

// Rule implements the leader's counting walk and termination timer.
// Almost every interaction pairs two followers, for which both meets are
// the identity; that case skips straight to the termination epidemic.
func (p *Protocol) Rule(rec, sen State, _ *rand.Rand) (State, State) {
	if rec.Leader || sen.Leader {
		rec, sen = p.meet(rec, sen)
		sen, rec = p.meet(sen, rec)
	}
	if rec.Terminated != sen.Terminated {
		rec.Terminated = true
		sen.Terminated = true
	}
	return rec, sen
}

func (p *Protocol) meet(a, b State) (State, State) {
	if !a.Leader {
		return a, b
	}
	if !b.Counted {
		b.Counted = true
		a.Count++
		a.Drought = 0
		return a, b
	}
	a.Drought++
	limit := p.termFactor * float64(a.Count) * math.Log(float64(a.Count)+2)
	if float64(a.Drought) >= limit {
		a.Terminated = true
	}
	return a, b
}

// LeaderCount returns the leader's current tally (the maximum over leader
// states, so mid-run results are deterministic for a seed even while the
// leader's old state lingers in a snapshot).
func LeaderCount(s pop.Engine[State]) int {
	m := 0
	for a := range s.Counts() {
		if a.Leader && int(a.Count) > m {
			m = int(a.Count)
		}
	}
	return m
}

// Terminated reports whether any agent carries the termination signal.
func Terminated(s pop.Engine[State]) bool {
	return s.Any(func(a State) bool { return a.Terminated })
}

// NewEngine constructs a simulation engine for the protocol; the backend
// is chosen with pop.WithBackend. The protocol cycles through Θ(n log n)
// leader states over a run, but only a handful are live at a time, so the
// batched engine applies (its interning tables compact dead states).
func (p *Protocol) NewEngine(n int, opts ...pop.Option) pop.Engine[State] {
	return pop.NewEngine(n, p.Initial, p.Rule, opts...)
}
