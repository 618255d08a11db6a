package popsize

import (
	"fmt"
	"math"

	"github.com/popsim/popsize/internal/leaderterm"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/synthcoin"
	"github.com/popsim/popsize/internal/term"
	"github.com/popsim/popsize/internal/upperbound"
)

// EstimateDeterministic runs the Appendix B synthetic-coin variant: the
// transition function consumes no random bits (the scheduler's
// sender/receiver choice is the only coin). Returns the mean estimate of
// the A-role agents.
func EstimateDeterministic(n int, seed uint64, opts ...pop.Option) (estimate, truth float64, err error) {
	p := synthcoin.MustNew(synthcoin.FastConfig())
	s := p.NewEngine(n, append([]pop.Option{pop.WithSeed(seed)}, opts...)...)
	logN := math.Log2(float64(n))
	budget := 40 * float64(16*2) * logN * logN
	ok, _ := s.RunUntil(p.Converged, logN, budget)
	if !ok {
		return 0, 0, fmt.Errorf("popsize: synthetic-coin protocol did not converge on n=%d", n)
	}
	return meanOf(s, synthcoin.State.Estimate), logN, nil
}

// EstimateUpperBound runs the §3.3 probability-1 variant until its exact
// backup tournament stabilizes and returns the guaranteed upper bound on
// log₂ n (>= log₂ n with probability 1; <= log₂ n + 9.4 w.h.p.).
func EstimateUpperBound(n int, seed uint64, opts ...pop.Option) (bound, truth float64, err error) {
	p := upperbound.MustNew(FastConfig())
	s := p.NewEngine(n, append([]pop.Option{pop.WithSeed(seed)}, opts...)...)
	ok, _ := s.RunUntil(upperbound.TournamentDone, 5, float64(1000*n))
	if !ok {
		return 0, 0, fmt.Errorf("popsize: backup tournament did not stabilize on n=%d", n)
	}
	s.RunTime(60 * math.Log2(float64(n)))
	lo := math.Inf(1)
	for a := range s.Counts() {
		v, _ := upperbound.Report(a)
		lo = math.Min(lo, v)
	}
	return lo, math.Log2(float64(n)), nil
}

// TerminatingResult reports a run of the §3.4 leader-driven terminating
// protocol.
type TerminatingResult struct {
	// TerminatedAt is the parallel time of the first termination signal.
	TerminatedAt float64
	// ConvergedFirst reports whether the size estimate had converged when
	// the signal fired (Theorem 3.13 promises this w.h.p.).
	ConvergedFirst bool
	// Estimate is the mean per-agent estimate at termination.
	Estimate float64
}

// EstimateTerminating runs the terminating-with-a-leader protocol of
// Theorem 3.13: one distinguished initial agent drives a timer that fires
// at Θ(log² n) time, after the estimate has converged w.h.p. (Theorem 4.1
// proves the leader is necessary: no uniform protocol from dense initial
// configurations can delay such a signal beyond O(1) time.)
func EstimateTerminating(n int, seed uint64, opts ...pop.Option) (TerminatingResult, error) {
	p := leaderterm.MustNew(FastConfig(), 0)
	s := p.NewEngine(n, append([]pop.Option{pop.WithSeed(seed)}, opts...)...)
	at, ok := term.FirstTermination(s, leaderterm.Terminated, 2, 200*p.Main().DefaultMaxTime(n))
	if !ok {
		return TerminatingResult{}, fmt.Errorf("popsize: leader timer never fired on n=%d", n)
	}
	return TerminatingResult{
		TerminatedAt:   at,
		ConvergedFirst: p.MainConverged(s),
		Estimate:       meanOf(s, func(a leaderterm.State) (float64, bool) { return a.Main.Estimate() }),
	}, nil
}

// meanOf returns the count-weighted mean of est over the agents of s that
// have an estimate, or 0 if none do.
func meanOf[S comparable](s pop.Engine[S], est func(S) (float64, bool)) float64 {
	var ws []stats.Weighted
	for a, cnt := range s.Counts() {
		if v, ok := est(a); ok {
			ws = append(ws, stats.Weighted{V: v, W: cnt})
		}
	}
	return stats.WeightedMean(ws)
}

// ErrorBound is Theorem 3.1's additive error bound on |estimate − log₂ n|.
const ErrorBound = 5.7

// FailureProbability returns Theorem 3.1's bound 9/n on the probability
// that a run's estimate misses log₂ n by more than ErrorBound.
func FailureProbability(n int) float64 { return 9 / float64(n) }
