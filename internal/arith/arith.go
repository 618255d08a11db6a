// Package arith implements the introduction's motivating example of
// efficient vs inefficient population computation (Section 1):
//
//	x, q → y, y   computes f(x) = 2x in expected O(log n) time, while
//	x, x → y, q   computes f(x) = ⌊x/2⌋ exponentially slower, in O(n) time.
//
// Doubling is fast because unconverted x's always find fuel q's in Θ(n)
// count; halving is slow because the last two x's must find *each other* —
// an Θ(n)-expected-time event. Experiment E18 and TestTimeShapes reproduce
// the separation, which is the reason "efficient" means polylog(n) in this
// literature.
package arith

import (
	"math/rand/v2"

	"github.com/popsim/popsize/internal/pop"
)

// Species is the state of one agent in either protocol.
type Species uint8

// Species values: X is input, Q is fuel/waste, Y is output.
const (
	X Species = iota + 1
	Q
	Y
)

// DoubleRule is x, q → y, y (order-insensitive).
func DoubleRule(rec, sen Species, _ *rand.Rand) (Species, Species) {
	if rec == X && sen == Q || rec == Q && sen == X {
		return Y, Y
	}
	return rec, sen
}

// HalveRule is x, x → y, q.
func HalveRule(rec, sen Species, _ *rand.Rand) (Species, Species) {
	if rec == X && sen == X {
		return Y, Q
	}
	return rec, sen
}

func pick(isX bool) Species {
	if isX {
		return X
	}
	return Q
}

// NewDoubleEngine builds a population with x X-agents and n−x Q-agents
// running the doubling protocol (requires x <= n/2 so the fuel cannot run
// out); the backend is chosen with pop.WithBackend.
func NewDoubleEngine(n, x int, opts ...pop.Option) pop.Engine[Species] {
	if 2*x > n {
		panic("arith: doubling requires x <= n/2")
	}
	return pop.NewEngine(n, func(i int, _ *rand.Rand) Species {
		return pick(i < x)
	}, DoubleRule, opts...)
}

// NewHalveEngine builds a population with x X-agents and n−x Q-agents
// running the halving protocol; the backend is chosen with
// pop.WithBackend.
func NewHalveEngine(n, x int, opts ...pop.Option) pop.Engine[Species] {
	if x > n {
		panic("arith: x > n")
	}
	return pop.NewEngine(n, func(i int, _ *rand.Rand) Species {
		return pick(i < x)
	}, HalveRule, opts...)
}

// Count returns the number of agents of the given species.
func Count(s pop.Engine[Species], sp Species) int {
	return s.Count(func(a Species) bool { return a == sp })
}

// Converged reports whether no X agents remain — for doubling, the output
// count of Y equals 2x; for halving on even x, Y equals x/2 + (x/2 became
// Q)… precisely: halving leaves ⌈x/2⌉ Y if x even, and one X stuck if x is
// odd (the classic parity remainder), in which case convergence means one
// X left.
func Converged(s pop.Engine[Species], odd bool) bool {
	x := Count(s, X)
	if odd {
		return x == 1
	}
	return x == 0
}

// CompletionTime runs until Converged and returns the parallel time taken.
func CompletionTime(s pop.Engine[Species], odd bool, maxTime float64) (float64, bool) {
	return completion(s, odd, maxTime)
}

func completion(s pop.Engine[Species], odd bool, maxTime float64) (float64, bool) {
	done, at := s.RunUntil(func(s pop.Engine[Species]) bool { return Converged(s, odd) }, 0.5, maxTime)
	return at, done
}
