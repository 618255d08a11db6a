// Package leaderterm implements Section 3.4 / Theorem 3.13: terminating
// size estimation with an initial leader. Theorem 4.1 shows a leaderless
// uniform dense protocol cannot signal termination; with one leader it can.
//
// The leader runs the main Log-Size-Estimation protocol like everyone else
// and, in parallel, counts its own interactions against the threshold
// TermFactor · ClockFactor · EpochFactor · L², where L is the effective
// logSize2 estimate. A leader's interaction count is Chernoff-concentrated
// at 2× parallel time, so the threshold fires at Θ(log² n) parallel time,
// a constant factor after the main protocol has converged w.h.p. The
// counter resets whenever logSize2 grows (the restart scheme), exactly as
// the estimate-driven timer of Theorem 3.13 requires. The paper drives this
// timer with the [9] leader phase clock; the interaction counter provides
// the same Θ(log² n) guarantee with one fewer moving part (DESIGN.md
// deviation 6; the [9] clock itself lives in internal/clock).
package leaderterm

import (
	"math/rand/v2"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// DefaultTermFactor multiplies the main protocol's expected convergence
// budget ClockFactor·EpochFactor·L² to place termination safely after
// convergence.
const DefaultTermFactor = 3

// State combines the main-protocol state with the leader timer.
type State struct {
	// Main is the embedded Log-Size-Estimation state.
	Main core.State
	// Leader marks the unique initial leader.
	Leader bool
	// Timer counts the leader's own interactions since the last logSize2
	// update.
	Timer uint32
	// Terminated is the termination signal (spread by epidemic once the
	// leader's timer fires).
	Terminated bool
}

// Protocol is the terminating-with-a-leader protocol.
type Protocol struct {
	main       *core.Protocol
	termFactor int
}

// New returns the protocol over the given main-protocol configuration.
// termFactor <= 0 selects DefaultTermFactor.
func New(cfg core.Config, termFactor int) (*Protocol, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if termFactor <= 0 {
		termFactor = DefaultTermFactor
	}
	return &Protocol{main: m, termFactor: termFactor}, nil
}

// MustNew is New, panicking on an invalid configuration.
func MustNew(cfg core.Config, termFactor int) *Protocol {
	p, err := New(cfg, termFactor)
	if err != nil {
		panic(err)
	}
	return p
}

// Initial places the leader at index 0; the protocol is otherwise uniform.
func (p *Protocol) Initial(i int, _ *rand.Rand) State {
	return State{Main: core.Initial(), Leader: i == 0}
}

// threshold is the leader's interaction-count target: a leader has ≈ 2
// interactions per time unit, so this fires at ≈ termFactor/2 × the main
// protocol's full K·T interaction budget in parallel time.
func (p *Protocol) threshold(raw uint8) uint32 {
	cfg := p.main.Config()
	l := uint32(raw) + uint32(cfg.GeomBonus)
	return uint32(p.termFactor) * uint32(cfg.ClockFactor) * uint32(cfg.EpochFactor) * l * l
}

// Rule runs the main transition, ticks the leader timer (resetting it when
// the weak estimate grows), and spreads the termination signal. An agent
// whose weak estimate grew treats a previously received signal as stale and
// drops it — the same restart semantics as every other downstream field —
// so a too-early signal cannot outlive the estimate it was based on.
func (p *Protocol) Rule(rec, sen State, r *rand.Rand) (State, State) {
	recLS, senLS := rec.Main.LogSize2, sen.Main.LogSize2
	rec.Main, sen.Main = p.main.Rule(rec.Main, sen.Main, r)
	rec = p.tick(rec, recLS)
	sen = p.tick(sen, senLS)

	if rec.Terminated != sen.Terminated {
		rec.Terminated = true
		sen.Terminated = true
	}
	return rec, sen
}

func (p *Protocol) tick(a State, prevLogSize2 uint8) State {
	if a.Main.LogSize2 != prevLogSize2 {
		a.Timer = 0 // restart: the estimate grew, the old deadline is void
		a.Terminated = false
	}
	if !a.Leader {
		return a
	}
	a.Timer++
	if a.Timer >= p.threshold(a.Main.LogSize2) {
		a.Terminated = true
	}
	return a
}

// Terminated reports whether any agent has raised the termination signal.
func Terminated(s pop.Engine[State]) bool {
	return s.Any(func(a State) bool { return a.Terminated })
}

// AllTerminated reports whether the signal has reached every agent.
func AllTerminated(s pop.Engine[State]) bool {
	return s.All(func(a State) bool { return a.Terminated })
}

// MainConverged reports whether the embedded main protocol satisfies its
// convergence predicate.
func (p *Protocol) MainConverged(s pop.Engine[State]) bool {
	first := true
	var ls uint8
	return s.All(func(a State) bool {
		m := a.Main
		if m.Role == core.RoleX || !m.HasOutput {
			return false
		}
		if first {
			ls, first = m.LogSize2, false
		} else if m.LogSize2 != ls {
			return false
		}
		return uint32(m.Epoch) >= p.main.Config().EpochTarget(m.LogSize2)
	})
}

// NewEngine constructs a simulation engine for the protocol; the backend
// is chosen with pop.WithBackend.
func (p *Protocol) NewEngine(n int, opts ...pop.Option) pop.Engine[State] {
	return pop.NewEngine(n, p.Initial, p.Rule, opts...)
}

// Main exposes the embedded main protocol.
func (p *Protocol) Main() *core.Protocol { return p.main }
