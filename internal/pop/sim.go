// Package pop implements the population-protocol execution model of
// Doty & Eftekhari (PODC 2019), Section 2: a population of n anonymous
// agents, a uniformly random scheduler that repeatedly selects an ordered
// pair of distinct agents (receiver, sender), and parallel time measured as
// interactions divided by n.
//
// Engines are generic over the agent state type S, which must be
// comparable so that configurations (multisets of states) and the number of
// distinct states used by an execution — the paper's space measure — can be
// tracked with maps.
//
// Three interchangeable engines implement the [Engine] interface (see
// engine.go):
//
//   - [Sim] (backend [Sequential]) — the reference engine: an explicit
//     agent array stepped one interaction at a time. Use it when per-agent
//     instrumentation is needed (WithInteractionCounts), for debugging,
//     and as the ground truth the multiset engines are validated against.
//
//   - [BatchSim] (backend [Batched]) — the multiset engine: state counts
//     plus collision-free batches of ~√n interactions, per-batch
//     hypergeometric sampling, and a deterministic-transition cache (see
//     batch.go for the algorithm and its exactness argument). Its cost
//     per interaction scales with the number of live states rather than
//     with n, which for this paper's O(log⁴ n)-state protocols makes it
//     several times faster than Sim at n >= 10⁶. It falls back to exact
//     sequential stepping while the live state count exceeds
//     WithBatchThreshold.
//
//   - [DenseSim] (backend [Dense]) — the count-vector engine: the same
//     multiset core, but each batch is advanced through the matrix of
//     ordered state-pair interaction counts, so per-batch work scales
//     with the live-state count instead of the batch length (see
//     dense.go). It switches to slot batches, in place, while a
//     configuration holds too many live states.
//
// [NewEngine] selects an engine via WithBackend; the default [Auto]
// chooses Batched from 4096 agents and Dense from 2²³. All three
// simulate the identical stochastic process — the cross-backend
// equivalence suite in equiv_test.go validates this — but consume the
// random stream differently, so a seed reproduces a run only within one
// backend. [RunTrials] fans independent trials across goroutines.
package pop

import (
	"fmt"
	"math/rand/v2"
)

// Rule is a randomized transition function δ ⊆ Λ⁴: given the states of the
// receiver and sender (each agent observes the other's full state) and a
// source of uniformly random bits, it returns their successor states.
//
// Deterministic protocols (such as the synthetic-coin variant of Appendix B)
// simply ignore the random source; the scheduler's receiver/sender order is
// itself uniformly random and may be used as a fair coin.
type Rule[S comparable] func(rec, sen S, r *rand.Rand) (recOut, senOut S)

// Sim executes a population protocol under the uniformly random pairwise
// scheduler. It is not safe for concurrent use; run independent trials on
// independent Sim values.
type Sim[S comparable] struct {
	pcg          *rand.PCG // rng's source, retained for snapshotting
	rng          *rand.Rand
	agents       []S
	rule         Rule[S]
	interactions int64

	// Per-segment parallel-time accounting (see Engine.Time): timeBase is
	// the parallel time accumulated over completed churn segments and
	// segStart the interaction count at the current segment's start.
	timeBase float64
	segStart int64

	seen    map[S]struct{} // non-nil iff state tracking enabled
	icounts []int64        // non-nil iff per-agent interaction counting enabled
}

// New constructs a simulator for a population of n agents whose i'th agent
// starts in initial(i, rng). For a uniform leaderless protocol, initial
// ignores i (all agents start identically); index-dependent initialization
// supports inputs (e.g. majority opinions) and initial leaders.
func New[S comparable](n int, initial func(i int, r *rand.Rand) S, rule Rule[S], opts ...Option) *Sim[S] {
	validatePopSize(int64(n))
	// Checked here, not in validatePopSize: the multiset engines hold n
	// far above the cap.
	if n > MaxAgentArray {
		panic(fmt.Sprintf(
			"pop: population size %d exceeds MaxAgentArray = %d, the cap on an agent array; the multiset backends (NewEngineFromCounts) hold larger populations",
			n, MaxAgentArray))
	}
	if rule == nil {
		panic("pop: nil rule")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	pcg := rand.NewPCG(o.seed, o.seed^0x9e3779b97f4a7c15)
	rng := rand.New(pcg)
	agents := make([]S, n)
	for i := range agents {
		agents[i] = initial(i, rng)
	}
	s := &Sim[S]{pcg: pcg, rng: rng, agents: agents, rule: rule}
	if o.trackStates {
		s.seen = make(map[S]struct{}, 64)
		for _, a := range agents {
			s.seen[a] = struct{}{}
		}
	}
	if o.trackInteractions {
		s.icounts = make([]int64, n)
	}
	return s
}

// N returns the population size.
func (s *Sim[S]) N() int { return len(s.agents) }

// Interactions returns the number of interactions executed so far.
func (s *Sim[S]) Interactions() int64 { return s.interactions }

// Stats returns execution diagnostics: every interaction steps the agent
// array.
func (s *Sim[S]) Stats() Stats { return Stats{SeqInteractions: s.interactions} }

// Time returns the parallel time elapsed, accumulated per churn segment
// (see Engine.Time); on a fixed population it equals interactions / n.
func (s *Sim[S]) Time() float64 {
	return s.timeBase + float64(s.interactions-s.segStart)/float64(len(s.agents))
}

// beginSegment folds the current churn segment into timeBase before a
// population-size change, so parallel time keeps meaning "interactions
// over the n they ran against".
func (s *Sim[S]) beginSegment() {
	s.timeBase += float64(s.interactions-s.segStart) / float64(len(s.agents))
	s.segStart = s.interactions
}

// AddAgents adds k agents in state st (a join event). The appended slots
// are indistinguishable from incumbents to the uniform scheduler. It
// panics, before growing the array, if the population would exceed
// MaxAgentArray.
func (s *Sim[S]) AddAgents(st S, k int) {
	checkJoin(len(s.agents), k)
	if len(s.agents)+k > MaxAgentArray {
		panic(fmt.Sprintf(
			"pop: AddAgents(%d) would grow the agent array of %d past MaxAgentArray = %d; the multiset backends hold larger populations",
			k, len(s.agents), MaxAgentArray))
	}
	if k == 0 {
		return
	}
	s.beginSegment()
	for i := 0; i < k; i++ {
		s.agents = append(s.agents, st)
	}
	if s.icounts != nil {
		s.icounts = append(s.icounts, make([]int64, k)...)
	}
	if s.seen != nil {
		s.seen[st] = struct{}{}
	}
}

// RemoveAgents removes k agents chosen uniformly at random without
// replacement (a leave event), refusing to shrink the population below 2.
func (s *Sim[S]) RemoveAgents(k int) {
	checkRemoval(len(s.agents), k)
	if k == 0 {
		return
	}
	s.beginSegment()
	// Swap-delete a uniform index each round: a uniform without-
	// replacement sample of the agent slice (per-agent interaction
	// counts, when tracked, travel with their agent).
	for ; k > 0; k-- {
		n := len(s.agents)
		j := s.rng.IntN(n)
		s.agents[j] = s.agents[n-1]
		s.agents = s.agents[:n-1]
		if s.icounts != nil {
			s.icounts[j] = s.icounts[n-1]
			s.icounts = s.icounts[:n-1]
		}
	}
}

// Agent returns the current state of agent i.
func (s *Sim[S]) Agent(i int) S { return s.agents[i] }

// AgentStates returns a copy of the current configuration as a state slice.
func (s *Sim[S]) AgentStates() []S {
	cp := make([]S, len(s.agents))
	copy(cp, s.agents)
	return cp
}

// Agents exposes the live agent slice for read-only scanning by convergence
// predicates. Callers must not mutate it; use AgentStates for a safe copy.
func (s *Sim[S]) Agents() []S { return s.agents }

// Counts returns the configuration vector: the multiset of states present,
// as a map from state to count.
func (s *Sim[S]) Counts() map[S]int {
	c := make(map[S]int, 64)
	for _, a := range s.agents {
		c[a]++
	}
	return c
}

// Count returns the number of agents satisfying pred.
func (s *Sim[S]) Count(pred func(S) bool) int {
	n := 0
	for _, a := range s.agents {
		if pred(a) {
			n++
		}
	}
	return n
}

// All reports whether every agent satisfies pred.
func (s *Sim[S]) All(pred func(S) bool) bool {
	for _, a := range s.agents {
		if !pred(a) {
			return false
		}
	}
	return true
}

// Any reports whether at least one agent satisfies pred.
func (s *Sim[S]) Any(pred func(S) bool) bool {
	for _, a := range s.agents {
		if pred(a) {
			return true
		}
	}
	return false
}

// DistinctStates returns the number of distinct states observed since the
// initial configuration. It returns 0 unless the simulator was constructed
// with WithStateTracking.
func (s *Sim[S]) DistinctStates() int { return len(s.seen) }

// InteractionCount returns how many interactions agent i has participated
// in. It returns 0 unless WithInteractionCounts was set.
func (s *Sim[S]) InteractionCount(i int) int64 {
	if s.icounts == nil {
		return 0
	}
	return s.icounts[i]
}

// MaxInteractionCount returns the maximum per-agent interaction count, or 0
// if WithInteractionCounts was not set.
func (s *Sim[S]) MaxInteractionCount() int64 {
	var m int64
	for _, c := range s.icounts {
		if c > m {
			m = c
		}
	}
	return m
}

// Rand exposes the simulator's random source (for protocol-specific
// initialization performed outside transition rules, e.g. dense-config
// shuffling in experiments).
func (s *Sim[S]) Rand() *rand.Rand { return s.rng }

// Step executes one interaction: an ordered pair (receiver, sender) of
// distinct agents is selected uniformly at random and the rule is applied.
func (s *Sim[S]) Step() {
	n := len(s.agents)
	i := s.rng.IntN(n)
	j := s.rng.IntN(n - 1)
	if j >= i {
		j++
	}
	ai, aj := &s.agents[i], &s.agents[j]
	*ai, *aj = s.rule(*ai, *aj, s.rng)
	s.interactions++
	if s.icounts != nil {
		s.icounts[i]++
		s.icounts[j]++
	}
	if s.seen != nil {
		s.seen[*ai] = struct{}{}
		s.seen[*aj] = struct{}{}
	}
}

// Run executes k interactions.
func (s *Sim[S]) Run(k int64) {
	for i := int64(0); i < k; i++ {
		s.Step()
	}
}

// RunTime executes t units of parallel time (t·n interactions, rounded
// down).
func (s *Sim[S]) RunTime(t float64) {
	s.Run(int64(t * float64(len(s.agents))))
}

// RunUntil repeatedly executes checkEvery units of parallel time and then
// evaluates pred, stopping as soon as pred holds or maxTime units of
// parallel time have elapsed since the call began. It returns true if pred
// held, along with the parallel time at which the final check succeeded.
// The check-boundary semantics are shared with the batched engine.
func (s *Sim[S]) RunUntil(pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64) {
	return runUntil[S](s, pred, checkEvery, maxTime)
}
