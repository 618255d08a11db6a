// Package synthcoin implements the Appendix B variant of the
// Log-Size-Estimation protocol: size estimation with no access to random
// bits. The transition function is fully deterministic (it never consumes
// random bits); all randomness comes from the scheduler's uniformly random
// choice of which interacting agent is the sender and which the receiver,
// following the synthetic-coin technique of [39].
//
// Agents partition into A (compute) and F (coin-flipper) roles. An A agent
// generates a geometric random variable by counting how many consecutive
// A–F interactions it participates in as the *sender* before it is first
// the *receiver* (Protocols 10–19). Unlike the main protocol there is no S
// role: each A agent accumulates its own sum, costing O(log⁶ n) states
// (Lemma B.5) instead of O(log⁴ n).
package synthcoin

import (
	"fmt"
	"math/rand/v2"

	"github.com/popsim/popsize/internal/pop"
)

// Role identifies an agent's sub-population.
type Role uint8

// Roles. F agents exist only to provide fair coins.
const (
	RoleX Role = iota + 1 // undecided (initial)
	RoleA                 // computes the estimate
	RoleF                 // provides coin flips
)

// Config carries the protocol's constants (see Protocol 10's use of
// 95·logSize2 and 5·logSize2).
type Config struct {
	// ClockFactor is the per-epoch interaction threshold multiplier
	// (the paper's 95).
	ClockFactor int
	// EpochFactor sets the number of epochs K = EpochFactor·logSize2
	// (the paper's 5).
	EpochFactor int
}

// PaperConfig returns Protocol 10's constants.
func PaperConfig() Config { return Config{ClockFactor: 95, EpochFactor: 5} }

// FastConfig returns reduced constants for simulation-budget-friendly runs
// (see DESIGN.md §2).
func FastConfig() Config { return Config{ClockFactor: 16, EpochFactor: 2} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.ClockFactor < 1 || c.EpochFactor < 1 {
		return fmt.Errorf("synthcoin: factors must be >= 1, got %+v", c)
	}
	return nil
}

// State is the full per-agent memory of Protocol 10.
type State struct {
	Role Role
	// LogSize2 is the weak size estimate being generated/propagated. The
	// "+2" of Lemma 3.8 is added on generation completion, exactly as in
	// Subprotocol 12.
	LogSize2 uint8
	// LogSize2Gen marks completion of the logSize2 generation.
	LogSize2Gen bool
	// GR is the current epoch's geometric variable (grows while the agent
	// keeps being the sender against F agents).
	GR uint8
	// GRGen marks completion of the current gr generation.
	GRGen bool
	// Time counts own interactions in the current epoch.
	Time uint16
	// Epoch counts completed epochs.
	Epoch uint16
	// Sum accumulates this agent's own per-epoch gr values.
	Sum uint32
	// Done marks completion of all K epochs.
	Done bool
}

// Initial returns the uniform initial state of Protocol 10.
func Initial() State {
	return State{Role: RoleX, LogSize2: 1, GR: 1}
}

// Estimate returns sum/epoch + 1 for a Done A agent.
func (s State) Estimate() (float64, bool) {
	if !s.Done || s.Epoch == 0 {
		return 0, false
	}
	return float64(s.Sum)/float64(s.Epoch) + 1, true
}

// Protocol is the synthetic-coin size-estimation protocol.
type Protocol struct {
	cfg Config
}

// New returns a Protocol with the given configuration.
func New(cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Protocol{cfg: cfg}, nil
}

// MustNew is New, panicking on an invalid configuration.
func MustNew(cfg Config) *Protocol {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Initial returns the uniform initial state.
func (p *Protocol) Initial(_ int, _ *rand.Rand) State { return Initial() }

func (p *Protocol) threshold(logSize2 uint8) uint32 {
	return uint32(p.cfg.ClockFactor) * uint32(logSize2)
}

func (p *Protocol) epochTarget(logSize2 uint8) uint32 {
	return uint32(p.cfg.EpochFactor) * uint32(logSize2)
}

// Rule is the deterministic transition function of Protocol 10. It never
// reads the random source; receiver/sender position is the only coin.
func (p *Protocol) Rule(rec, sen State, _ *rand.Rand) (State, State) {
	rec, sen = partition(rec, sen)

	if rec.Role == RoleA {
		rec = p.tick(rec)
	}
	if sen.Role == RoleA {
		sen = p.tick(sen)
	}

	switch {
	case rec.Role == RoleA && sen.Role == RoleF:
		rec = generate(rec, false) // the A agent is the receiver: heads
	case sen.Role == RoleA && rec.Role == RoleF:
		sen = generate(sen, true) // the A agent is the sender: tails
	case rec.Role == RoleA && sen.Role == RoleA:
		rec, sen = p.pairAA(rec, sen)
	}
	return rec, sen
}

// partition implements Partition-Into-A/F (Subprotocol 11), with the same
// unordered reading as the main protocol's Subprotocol 2.
func partition(rec, sen State) (State, State) {
	switch {
	case rec.Role == RoleX && sen.Role == RoleX:
		sen.Role = RoleA
		rec.Role = RoleF
	case sen.Role == RoleX:
		if rec.Role == RoleA {
			sen.Role = RoleF
		} else {
			sen.Role = RoleA
		}
	case rec.Role == RoleX:
		if sen.Role == RoleA {
			rec.Role = RoleF
		} else {
			rec.Role = RoleA
		}
	}
	return rec, sen
}

// tick implements the Time increment plus
// Check-if-Timer-Done-and-Increment-Epoch (Subprotocol 17).
func (p *Protocol) tick(a State) State {
	if a.Done {
		return a
	}
	a.Time++
	if uint32(a.Time) >= p.threshold(a.LogSize2) {
		a.Epoch++
		a = updateSum(a)
		if uint32(a.Epoch) >= p.epochTarget(a.LogSize2) {
			a.Done = true
		}
	}
	return a
}

// updateSum implements Subprotocol 19: accumulate the agent's own gr and
// start generating the next one.
func updateSum(a State) State {
	a.Sum += uint32(a.GR)
	a.Time = 0
	a.GR = 1
	a.GRGen = false
	return a
}

// generate implements Generate-Clock (Subprotocol 12) and Generate-G.R.V
// (Subprotocol 15): while the A agent keeps being the sender the counter
// grows; its first receiver interaction completes the variable. The +2 on
// logSize2 completion is Lemma 3.8's bonus, explicit in Subprotocol 12.
func generate(a State, sender bool) State {
	switch {
	case !a.LogSize2Gen:
		if sender {
			if a.LogSize2 < 253 {
				a.LogSize2++
			}
		} else {
			a.LogSize2Gen = true
			a.LogSize2 += 2
		}
	case !a.GRGen:
		if sender {
			if a.GR < 255 {
				a.GR++
			}
		} else {
			a.GRGen = true
		}
	}
	return a
}

// pairAA implements the A–A interactions of Protocol 10:
// Propagate-Max-Clock-Value with Restart (Subprotocols 13/14, gated on both
// agents having completed logSize2 generation — see DESIGN.md),
// Propagate-Incremented-Epoch (Subprotocol 18, with Update-Sum on
// adoption), and Propagate-Max-G.R.V. (Subprotocol 16).
func (p *Protocol) pairAA(a, b State) (State, State) {
	if a.LogSize2Gen && b.LogSize2Gen {
		switch {
		case a.LogSize2 < b.LogSize2:
			a.LogSize2 = b.LogSize2
			a = restart(a)
		case b.LogSize2 < a.LogSize2:
			b.LogSize2 = a.LogSize2
			b = restart(b)
		}
	}
	if a.GRGen && b.GRGen {
		switch {
		case !a.Done && a.Epoch < b.Epoch:
			a.Epoch = b.Epoch
			a = updateSum(a)
			if uint32(a.Epoch) >= p.epochTarget(a.LogSize2) {
				a.Done = true
			}
		case !b.Done && b.Epoch < a.Epoch:
			b.Epoch = a.Epoch
			b = updateSum(b)
			if uint32(b.Epoch) >= p.epochTarget(b.LogSize2) {
				b.Done = true
			}
		}
		if !a.Done && !b.Done && a.Epoch == b.Epoch {
			if a.GR < b.GR {
				a.GR = b.GR
			} else if b.GR < a.GR {
				b.GR = a.GR
			}
		}
	}
	return a, b
}

// restart implements Subprotocol 14.
func restart(a State) State {
	a.Time = 0
	a.Sum = 0
	a.Epoch = 0
	a.GR = 1
	a.GRGen = false
	a.Done = false
	return a
}

// Converged reports that every agent has a role and every A agent is Done
// with a common logSize2 (the F agents hold no output by design; see
// Appendix B and DESIGN.md).
func (p *Protocol) Converged(s pop.Engine[State]) bool {
	var ls uint8
	ok := s.All(func(a State) bool {
		if a.Role == RoleX {
			return false
		}
		if a.Role != RoleA {
			return true
		}
		if !a.Done {
			return false
		}
		if ls == 0 {
			ls = a.LogSize2
		} else if a.LogSize2 != ls {
			return false
		}
		return true
	})
	return ok && ls != 0
}

// NewEngine constructs a simulation engine for the protocol; the backend
// is chosen with pop.WithBackend (default pop.Auto).
func (p *Protocol) NewEngine(n int, opts ...pop.Option) pop.Engine[State] {
	return pop.NewEngine(n, p.Initial, p.Rule, opts...)
}
