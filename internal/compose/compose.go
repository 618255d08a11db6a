// Package compose implements the paper's general composition method
// (Section 1.1): making a nonuniform downstream protocol — one that needs
// an estimate of log n — uniform, despite Theorem 4.1 forbidding a
// terminating size-estimation preprocessor.
//
// Every agent samples a geometric random variable and max-propagates it,
// yielding the weak estimate s with log n − log ln n <= s <= 2·log n
// w.h.p. (Corollary D.7; in the randomized-bits model all agents sample, so
// no A/S split is needed — DESIGN.md deviation 7). Each agent counts its
// own interactions against the stage length f(s) = F·s; the first agent to
// reach it starts the next stage, which spreads by max-epidemic. The
// downstream protocol receives s and the current stage index. Whenever s
// grows, the entire downstream computation restarts.
package compose

import (
	"fmt"
	"math/rand/v2"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/prob"
)

// Downstream describes a (possibly nonuniform) staged protocol to be
// uniformized. D is the downstream per-agent state.
type Downstream[D comparable] struct {
	// Init returns agent i's initial downstream state; it may encode the
	// agent's input (e.g. a majority opinion).
	Init func(i int, r *rand.Rand) D
	// Transition runs one downstream interaction. It receives the current
	// stage index and the weak size estimate s, the two quantities a
	// nonuniform protocol would have hard-coded.
	Transition func(rec, sen D, stage, sEst int, r *rand.Rand) (D, D)
	// OnStage is invoked once per stage increment on each agent (in
	// order, when an agent skips stages via epidemic catch-up).
	OnStage func(d D, newStage, sEst int, r *rand.Rand) D
	// Reset restores an agent's downstream state for a full restart
	// (called when the weak estimate grows).
	Reset func(d D, r *rand.Rand) D
	// Stages returns the number K of stages to run given s (the paper's
	// K = Θ(log n), computed as a multiple of s so it needs no storage).
	Stages func(sEst int) int
}

func (d Downstream[D]) validate() error {
	if d.Init == nil || d.Transition == nil || d.OnStage == nil || d.Reset == nil || d.Stages == nil {
		return fmt.Errorf("compose: all Downstream hooks must be non-nil")
	}
	return nil
}

// Config holds the wrapper's constants.
type Config struct {
	// F is the stage-length multiplier: agents advance a stage after F·s
	// of their own interactions. It plays the role of the main protocol's
	// ClockFactor (the paper's 95; 16 is the fast preset).
	F int
}

// State is the wrapper's per-agent state around the downstream state D.
type State[D comparable] struct {
	// S is the weak size estimate (own geometric sample, then the
	// propagated maximum).
	S uint8
	// C counts own interactions within the current stage.
	C uint32
	// Stage is the current stage index (0-based).
	Stage uint16
	// Done marks completion of all K stages.
	Done bool
	// D is the downstream state.
	D D
}

// Protocol is the uniformizing wrapper.
type Protocol[D comparable] struct {
	cfg  Config
	down Downstream[D]
}

// New returns a wrapper for the downstream protocol.
func New[D comparable](cfg Config, down Downstream[D]) (*Protocol[D], error) {
	if cfg.F < 1 {
		return nil, fmt.Errorf("compose: F %d < 1", cfg.F)
	}
	if err := down.validate(); err != nil {
		return nil, err
	}
	return &Protocol[D]{cfg: cfg, down: down}, nil
}

// MustNew is New, panicking on error.
func MustNew[D comparable](cfg Config, down Downstream[D]) *Protocol[D] {
	p, err := New(cfg, down)
	if err != nil {
		panic(err)
	}
	return p
}

// Initial samples the agent's geometric contribution to the weak estimate
// and initializes the downstream state.
func (p *Protocol[D]) Initial(i int, r *rand.Rand) State[D] {
	g := prob.Geometric(r)
	if g > 255 {
		g = 255
	}
	return State[D]{S: uint8(g), D: p.down.Init(i, r)}
}

func (p *Protocol[D]) stageLen(s uint8) uint32 { return uint32(p.cfg.F) * uint32(s) }

// Rule is the wrapper's transition: weak-estimate epidemic with restart,
// per-agent stage clocks, stage epidemic, then the downstream transition
// (which runs only between agents in the same stage, the synchronized
// regime the phase clock guarantees w.h.p.).
func (p *Protocol[D]) Rule(rec, sen State[D], r *rand.Rand) (State[D], State[D]) {
	// Weak-estimate epidemic; growth restarts everything downstream.
	switch {
	case rec.S < sen.S:
		rec = p.restart(rec, sen.S, r)
	case sen.S < rec.S:
		sen = p.restart(sen, rec.S, r)
	}

	rec = p.tick(rec, r)
	sen = p.tick(sen, r)

	// Stage epidemic: the straggler catches up, applying OnStage once per
	// skipped stage.
	switch {
	case rec.Stage < sen.Stage:
		rec = p.catchUp(rec, sen.Stage, r)
	case sen.Stage < rec.Stage:
		sen = p.catchUp(sen, rec.Stage, r)
	}

	if rec.Stage == sen.Stage {
		rec.D, sen.D = p.down.Transition(rec.D, sen.D, int(rec.Stage), int(rec.S), r)
	}
	return rec, sen
}

func (p *Protocol[D]) restart(a State[D], newS uint8, r *rand.Rand) State[D] {
	a.S = newS
	a.C = 0
	a.Stage = 0
	a.Done = false
	a.D = p.down.Reset(a.D, r)
	return a
}

func (p *Protocol[D]) tick(a State[D], r *rand.Rand) State[D] {
	if a.Done {
		return a
	}
	a.C++
	if a.C >= p.stageLen(a.S) {
		a = p.enterStage(a, a.Stage+1, r)
	}
	return a
}

func (p *Protocol[D]) catchUp(a State[D], to uint16, r *rand.Rand) State[D] {
	for a.Stage < to {
		a = p.enterStage(a, a.Stage+1, r)
	}
	return a
}

func (p *Protocol[D]) enterStage(a State[D], stage uint16, r *rand.Rand) State[D] {
	a.Stage = stage
	a.C = 0
	a.D = p.down.OnStage(a.D, int(stage), int(a.S), r)
	if int(a.Stage) >= p.down.Stages(int(a.S)) {
		a.Done = true
	}
	return a
}

// Converged reports that all agents share the weak estimate and have
// completed all stages.
func (p *Protocol[D]) Converged(s pop.Engine[State[D]]) bool {
	first := true
	var est uint8
	return s.All(func(a State[D]) bool {
		if !a.Done {
			return false
		}
		if first {
			est, first = a.S, false
			return true
		}
		return a.S == est
	})
}

// NewEngine constructs a simulation engine for the wrapped protocol; the
// backend is chosen with pop.WithBackend (default pop.Auto).
func (p *Protocol[D]) NewEngine(n int, opts ...pop.Option) pop.Engine[State[D]] {
	return pop.NewEngine(n, p.Initial, p.Rule, opts...)
}
