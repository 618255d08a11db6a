// Package popsize is a Go implementation of the population-size estimation
// protocols of Doty & Eftekhari, "Efficient size estimation and
// impossibility of termination in uniform dense population protocols"
// (PODC 2019).
//
// The headline protocol, Log-Size-Estimation, is uniform (agents know
// nothing about n, not even an estimate) and leaderless (all agents start
// identical); it computes log₂ n ± 5.7 with probability >= 1 − 9/n in
// O(log² n) parallel time using O(log⁴ n) states:
//
//	est, err := popsize.New(popsize.FastConfig())
//	if err != nil { ... }
//	res := est.Run(100000, popsize.RunOptions{Seed: 1})
//	fmt.Printf("log2(n) ≈ %.2f (true %.2f)\n", res.Estimate, math.Log2(100000))
//
// The package also exposes the paper's variants — the deterministic
// synthetic-coin protocol of Appendix B, the probability-1 upper-bound
// protocol of §3.3, and the terminating-with-a-leader protocol of §3.4 —
// plus the [2]-style weak estimator the main protocol bootstraps from.
// Each takes trailing engine options (pop.WithBackend, default pop.Auto).
// Deeper machinery (the simulation engines, composition framework,
// termination/impossibility experiments) lives in the internal packages
// and is exercised by cmd/experiments and the examples.
//
// # Simulation backends
//
// Three interchangeable engines implement the paper's uniformly random
// pairwise scheduler, unified behind the internal pop.Engine interface
// and selected per run via RunOptions.Backend:
//
//   - The sequential engine (pop.Sequential) keeps an explicit agent
//     array and simulates one interaction at a time. It is the reference
//     implementation: simple, allocation-free per step, and the only
//     engine with per-agent instrumentation (interaction counts).
//
//   - The batched engine (pop.Batched) keeps only the configuration
//     multiset — state counts — and simulates collision-free batches of
//     ~√n interactions at a time with hypergeometric sampling and a
//     deterministic-transition cache, following Berenbrink et al.
//     (arXiv:2005.03584). Its per-interaction cost depends on the number
//     of live states (O(log⁴ n) here, per Lemma 3.9) rather than on n,
//     so it overtakes the sequential engine as populations grow: ~3× at
//     n = 10⁶ and >5× at n = 10⁷ on this protocol. Trajectories are
//     identically distributed to the sequential engine's — validated by
//     the cross-backend equivalence suite — but not bit-identical for a
//     given seed, and the engine falls back to exact sequential stepping
//     while a configuration holds more distinct states than its
//     threshold.
//
//   - The dense engine (pop.Dense) also keeps only state counts, but
//     advances each batch through the matrix of ordered state-pair
//     interaction counts (multivariate hypergeometric draws), applying
//     every deterministic transition once per state pair with its
//     multiplicity. Per-batch work depends on the live-state count, not
//     the batch length: every hypergeometric draw runs in constant
//     expected time (an HRUA rejection sampler above the light-state
//     crossover, overflow-safe to N = 10¹²), and no agent-sized
//     allocation exists anywhere — populations of 10⁹–10¹⁰ agents are
//     routine. It switches to the batched engine's slot batches, in
//     place, while a configuration holds more live states than its
//     √n-scaled threshold.
//
// The default (pop.Auto) picks the batched engine for populations of at
// least 4096 agents and the dense engine beyond ~8 million (2²³).
// Multi-trial experiments parallelize across goroutines in the sweep
// layer (internal/sweep), which runs each trial as one unit of a bounded
// worker pool. A single trial runs on one core: every batch samples its
// participants and pairing serially under one seed-derived stream.
//
// # Dynamic populations
//
// All three engines support join/leave churn between interactions —
// AddAgents inserts agents in a given state, RemoveAgents removes a
// uniform-random subset (drawn as a multivariate hypergeometric sample
// of the configuration on the multiset backends) — and parallel time is
// accumulated per population-size segment so it stays meaningful as n
// changes. The internal churn package layers declarative schedules
// (step and Poisson turnover, doubling/halving, bursts) and a
// detect-and-restart size tracker in the spirit of Kaaser & Lohmann
// (arXiv:2405.05137) on top; see DESIGN.md §1.2, examples/churn, and
// the E-churn experiments.
//
// # Snapshots and trajectory histories
//
// Every engine serializes its complete resumable state — configuration,
// interaction count, per-segment time accounting, rng stream, and mode
// (mid-fallback, mid-delegation) — as a versioned snapshot, and restoring
// one resumes the run byte-identically to an uninterrupted execution on
// every backend (RunOptions.Restore / RunOptions.Observe at the library
// level; -snapshot/-snapshot-at/-restore on the commands). A sampled
// trajectory history records the full configuration every Δ units of
// parallel time without perturbing the run statistically
// (RunOptions.Observe; -history/-history-dt streams it as JSONL). The
// churn tracker checkpoints its own state alongside the engine and
// resumes exactly. See DESIGN.md §1.3.
//
// # Declarative protocol tables and the protocol zoo
//
// Beyond the paper's pipeline, protocols small enough to write as data
// are declared as transition tables: the internal pop.Table maps
// ordered (receiver, sender) state pairs to outcomes — deterministic, or
// weighted randomized branches — and compiles into an executable rule
// plus metadata (declared state set, per-pair determinism, a dense
// transition matrix) that the multiset engines exploit to resolve
// interactions by table lookup, byte-identically to the rule-closure
// path. The internal protocol registry maps names to runnable
// protocols; cmd/popsim's -protocol flag dispatches on it, covering the
// estimation pipeline and its baselines plus a table-compiled zoo
// (epidemic, 3-state approximate majority, undecided-state majority,
// phase-clock junta election, Berenbrink–Kaaser–Radzik counting), all
// of which support the snapshot/history instrumentation above. See
// DESIGN.md §1.4 and examples/approxmajority (the 4-line
// approximate-majority table at n = 10⁹).
package popsize

import (
	"fmt"
	"math"

	"github.com/popsim/popsize/internal/approxsize"
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// Config holds the protocol constants (threshold and epoch multipliers and
// the logSize2 bonus). See DESIGN.md for the paper-vs-fast presets.
type Config = core.Config

// PaperConfig returns Protocol 1's constants (95, 5, +2).
func PaperConfig() Config { return core.PaperConfig() }

// FastConfig returns reduced constants that preserve the protocol's shape
// at ~30× less simulation cost; the default for tests and quick runs.
func FastConfig() Config { return core.FastConfig() }

// RunOptions configures a single protocol run.
type RunOptions = core.RunOptions

// Result is the outcome of a run: convergence, parallel time, the mean
// per-agent estimate of log₂ n, and the worst per-agent error.
type Result = core.Result

// Estimator runs the uniform leaderless Log-Size-Estimation protocol.
type Estimator struct {
	p *core.Protocol
}

// New returns an Estimator with the given configuration.
func New(cfg Config) (*Estimator, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("popsize: %w", err)
	}
	return &Estimator{p: p}, nil
}

// Run simulates the protocol on a population of n agents until convergence
// (or the time budget) and returns the Result.
func (e *Estimator) Run(n int, o RunOptions) Result {
	return e.p.Run(n, o)
}

// Estimate is the one-call convenience form: it runs the fast-preset
// protocol on n agents with the given seed and returns the estimate of
// log₂ n together with the true value. If the protocol does not fully
// converge within the default budget, the best-effort estimate from the
// final configuration is still returned alongside a non-nil error, so
// callers can distinguish "didn't fully converge" (estimate usable with
// caution) from "no data" (configuration error, zero estimate).
func Estimate(n int, seed uint64) (estimate, truth float64, err error) {
	return estimateWith(n, RunOptions{Seed: seed})
}

// estimateWith is Estimate with explicit run options (tests use a small
// MaxTime to exercise the non-convergence path deterministically).
func estimateWith(n int, o RunOptions) (estimate, truth float64, err error) {
	e, err := New(FastConfig())
	if err != nil {
		return 0, 0, err
	}
	res := e.Run(n, o)
	truth = math.Log2(float64(n))
	if !res.Converged {
		return res.Estimate, truth, fmt.Errorf(
			"popsize: protocol did not converge on n=%d within the default budget (best-effort estimate %.3f)",
			n, res.Estimate)
	}
	return res.Estimate, truth, nil
}

// WeakEstimate runs the [2]-style baseline (one geometric random variable
// per agent, maximum by epidemic): a constant-multiplicative-factor
// estimate k of log₂ n (√n <= 2^k <= poly(n)) in O(log n) time. It is the
// first step of the main protocol and the weak estimate of the §1.1
// composition scheme.
func WeakEstimate(n int, seed uint64, opts ...pop.Option) (k int, err error) {
	s := approxsize.NewEngine(n, append([]pop.Option{pop.WithSeed(seed)}, opts...)...)
	logN := math.Log2(float64(n))
	ok, _ := s.RunUntil(approxsize.Converged, 1, 200*logN+100)
	if !ok {
		return 0, fmt.Errorf("popsize: weak estimate did not propagate on n=%d", n)
	}
	ck, _ := approxsize.CommonK(s)
	return int(ck), nil
}
