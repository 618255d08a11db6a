// Package approxsize implements the baseline size-estimation protocol of
// Alistarh, Aspnes, Eisenstat, Gelashvili & Rivest [2], which the main
// protocol uses as its first step: every agent generates one geometric
// random variable and the population propagates the maximum by epidemic.
//
// The result k satisfies log n − log ln n <= k <= 2·log n w.h.p.
// (Corollary A.2's randomized-model analysis) — a constant multiplicative
// approximation of log n, i.e. a polynomial approximation of n, computed in
// O(log n) time and states. The main protocol improves this to a constant
// additive approximation of log n at the price of O(log² n) time
// (experiment E16 measures both sides of the trade).
package approxsize

import (
	"math/rand/v2"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/prob"
)

// State is a single propagating value.
type State struct {
	// K is the largest geometric random variable seen.
	K uint8
}

// Initial draws the agent's geometric random variable.
func Initial(_ int, r *rand.Rand) State {
	g := prob.Geometric(r)
	if g > 255 {
		g = 255
	}
	return State{K: uint8(g)}
}

// Rule propagates the maximum.
func Rule(rec, sen State, _ *rand.Rand) (State, State) {
	if rec.K < sen.K {
		rec.K = sen.K
	} else if sen.K < rec.K {
		sen.K = rec.K
	}
	return rec, sen
}

// Converged reports whether all agents agree (the maximum has reached
// everyone). Note the protocol itself cannot detect this — Theorem 4.1 —
// so this predicate exists only for external measurement.
func Converged(s pop.Engine[State]) bool {
	_, ok := CommonK(s)
	return ok
}

// CommonK returns the population-wide value k once the maximum has reached
// every agent, or false while agents still disagree.
func CommonK(s pop.Engine[State]) (uint8, bool) {
	c := s.Counts()
	if len(c) != 1 {
		return 0, false
	}
	for a := range c {
		return a.K, true
	}
	return 0, false
}

// NewEngine constructs a simulation engine for the baseline; the backend
// is chosen with pop.WithBackend.
func NewEngine(n int, opts ...pop.Option) pop.Engine[State] {
	return pop.NewEngine(n, Initial, Rule, opts...)
}
