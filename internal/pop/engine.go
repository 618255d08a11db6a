package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// Engine is the interface shared by the simulation backends. Three
// implementations exist:
//
//   - [Sim], the sequential reference engine: an explicit agent array,
//     one uniformly random ordered pair per Step. O(1) work per
//     interaction, but every interaction touches two random positions of
//     an n-sized array, so large populations are memory-bound.
//
//   - [BatchSim], the batched multiset engine: the configuration is kept
//     as state counts and interactions are simulated in collision-free
//     batches of ~√n at a time (Berenbrink et al., "Simulating Population
//     Protocols in Sub-Constant Time per Interaction", arXiv:2005.03584).
//     Its cost per interaction depends on the number of currently-live
//     distinct states rather than on n, which is exactly the regime of
//     this paper's O(log⁴ n) state bound.
//
//   - [DenseSim], the count-vector engine: like BatchSim it stores only
//     state counts, but it never materializes batch participants either —
//     each batch is advanced through the matrix of ordered state-pair
//     interaction counts (a multivariate hypergeometric draw), so each
//     deterministic transition is applied once per state pair with its
//     multiplicity. Per-batch work scales with the live-state count q
//     instead of the ~√n batch length, which makes n = 10⁹ and beyond
//     feasible for the paper's dense (concentrated) configurations.
//
// All engines simulate the same process — the uniformly random pairwise
// scheduler of Section 2 — and the configuration trajectories of BatchSim
// and DenseSim are distributed identically to Sim's (they are not
// approximations; see the package comments of batch.go and dense.go). They
// do not produce bit-identical runs for a given seed, because they consume
// the random stream differently; the cross-backend equivalence tests
// compare them statistically.
//
// Predicates passed to RunUntil, and the per-state predicates given to
// Count/All/Any, must depend only on the multiset of states (not on agent
// identities), which is what the anonymous population model guarantees
// anyway.
//
// Populations are dynamic: AddAgents and RemoveAgents model join/leave
// churn between (never during) interactions, the regime of the dynamic
// size-counting literature (Kaaser & Lohmann, arXiv:2405.05137). Agents
// are anonymous, so a join is fully described by the joining state and a
// leave by uniform-random selection; all three backends implement both
// natively (the multiset engines as count edits, with removal drawn as a
// multivariate hypergeometric sample of the counts vector). Parallel
// time stays meaningful across churn because Time is accumulated per
// population-size segment rather than as a single interactions/n ratio.
type Engine[S comparable] interface {
	// N returns the current population size.
	N() int
	// Interactions returns the number of interactions executed so far.
	Interactions() int64
	// Time returns the parallel time elapsed. On a fixed population this
	// is interactions / n; under churn it is the per-segment sum
	// Σ_j I_j/n_j over the maximal runs of interactions I_j executed
	// while the population size was n_j, so one unit of parallel time
	// always means "n interactions at the current n".
	Time() float64
	// AddAgents adds k agents, all in state s, to the population (a join
	// event). New agents are indistinguishable from incumbents to the
	// scheduler from the next interaction on. k must be >= 0.
	AddAgents(s S, k int)
	// RemoveAgents removes k agents chosen uniformly at random without
	// replacement (a leave event). It panics if the removal would shrink
	// the population below the 2-agent minimum the pairwise scheduler
	// needs.
	RemoveAgents(k int)
	// Step executes one interaction.
	Step()
	// Run executes k interactions.
	Run(k int64)
	// RunTime executes t units of parallel time (t·n interactions).
	RunTime(t float64)
	// RunUntil repeatedly executes checkEvery units of parallel time (at
	// least one interaction) and then evaluates pred, stopping as soon as
	// pred holds or maxTime units of parallel time have elapsed since the
	// call began.
	RunUntil(pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64)
	// Counts returns the configuration vector: the multiset of states
	// present, as a map from state to count.
	Counts() map[S]int
	// Count returns the number of agents satisfying pred.
	Count(pred func(S) bool) int
	// All reports whether every agent satisfies pred. pred is evaluated
	// sequentially (at most once per distinct state on the batched
	// engine) with early exit, so stateful closures — e.g. capturing the
	// first state seen to check population-wide agreement — are valid on
	// every backend and cost no allocation.
	All(pred func(S) bool) bool
	// Any reports whether at least one agent satisfies pred.
	Any(pred func(S) bool) bool
	// DistinctStates returns the number of distinct states observed since
	// the initial configuration (the paper's space measure). The
	// sequential engine requires WithStateTracking and returns 0
	// otherwise; the batched engine tracks states as a side effect of its
	// representation and always reports them.
	DistinctStates() int
	// Stats returns the engine's execution counters (see Stats).
	Stats() Stats
	// Snapshot captures the engine's full resumable state — configuration,
	// interaction count, per-segment time accounting, rng stream, and
	// mode (delegation/fallback) — as a versioned, serializable value.
	// Restore rebuilds an engine from it such that restore-then-run is
	// byte-identical to an uninterrupted run (see snapshot.go).
	Snapshot() (*Snapshot[S], error)
}

var (
	_ Engine[int] = (*Sim[int])(nil)
	_ Engine[int] = (*BatchSim[int])(nil)
	_ Engine[int] = (*DenseSim[int])(nil)
)

// Backend selects a simulation engine implementation.
type Backend int

const (
	// Auto picks Dense for very large populations, Batched for large ones
	// and Sequential otherwise (or whenever a requested feature, such as
	// per-agent interaction counts, needs the agent array).
	Auto Backend = iota
	// Sequential is the agent-array reference engine (Sim).
	Sequential
	// Batched is the multiset engine (BatchSim).
	Batched
	// Dense is the count-vector engine (DenseSim).
	Dense
)

// autoBatchMinN is the population size above which Auto prefers the
// batched engine; below it, batches are too short to amortize their
// per-batch setup and the agent array is already cache-resident.
const autoBatchMinN = 4096

// autoDenseMinN is the population size above which Auto prefers the
// count-vector engine. Its pair-matrix batches beat slot batching once
// batches are long relative to the live-state count; live states are
// unknowable at construction, so the cutoff is sized for the protocols in
// this repository (O(log⁴ n) states, ~10² live at steady state) and
// DenseSim's own runtime heuristic switches to slot batches, in place,
// whenever a configuration disperses.
const autoDenseMinN = 1 << 23

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case Auto:
		return "auto"
	case Sequential:
		return "seq"
	case Batched:
		return "batch"
	case Dense:
		return "dense"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return Auto, nil
	case "seq", "sequential":
		return Sequential, nil
	case "batch", "batched":
		return Batched, nil
	case "dense":
		return Dense, nil
	default:
		return Auto, fmt.Errorf("pop: unknown backend %q (want auto, seq, batch or dense)", s)
	}
}

// NewEngine constructs a simulation engine for a population of n agents
// whose i'th agent starts in initial(i, rng), using the backend selected
// by WithBackend (default Auto). Every backend consumes the seed
// identically during initialization, so all three start from the same
// initial configuration.
func NewEngine[S comparable](n int, initial func(i int, r *rand.Rand) S, rule Rule[S], opts ...Option) Engine[S] {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	switch resolveBackend(o, int64(n)) {
	case Batched:
		return NewBatch(n, initial, rule, opts...)
	case Dense:
		return NewDense(n, initial, rule, opts...)
	default:
		return New(n, initial, rule, opts...)
	}
}

// resolveBackend applies the Auto heuristic: sequential while the agent
// array is cache-resident (or per-agent instrumentation is requested),
// batched for large populations, dense for very large ones.
func resolveBackend(o options, total int64) Backend {
	if o.backend != Auto {
		return o.backend
	}
	switch {
	case o.trackInteractions || total < autoBatchMinN:
		return Sequential
	case total < autoDenseMinN:
		return Batched
	default:
		return Dense
	}
}

// NewEngineFromConfig is NewEngine for an explicit initial configuration
// (copied).
func NewEngineFromConfig[S comparable](agents []S, rule Rule[S], opts ...Option) Engine[S] {
	cp := make([]S, len(agents))
	copy(cp, agents)
	return NewEngine(len(cp), func(i int, _ *rand.Rand) S { return cp[i] }, rule, opts...)
}

// NewEngineFromCounts is NewEngine for an initial configuration given as a
// state-count multiset (states[i] held by counts[i] agents; zero-count
// entries are skipped, duplicate states accumulate). The multiset
// backends never materialize the population, so this is the only engine
// constructor usable at sizes where an n-element agent array would not
// fit in memory; the sequential backend expands the multiset into its
// agent array and remains bounded by it.
func NewEngineFromCounts[S comparable](states []S, counts []int64, rule Rule[S], opts ...Option) Engine[S] {
	total := validateCounts(states, counts)
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	switch resolveBackend(o, total) {
	case Batched:
		return NewBatchFromCounts(states, counts, rule, opts...)
	case Dense:
		return NewDenseFromCounts(states, counts, rule, opts...)
	default:
		// Expand through New's initializer, which visits agents in index
		// order, so the array is built exactly once (NewEngineFromConfig
		// would defensively copy a pre-built slice, doubling peak memory).
		i, c := 0, int64(0)
		return New(int(total), func(int, *rand.Rand) S {
			for c == counts[i] {
				i++
				c = 0
			}
			c++
			return states[i]
		}, rule, opts...)
	}
}

// validatePopSize is the single population-size check shared by every
// engine constructor: the pairwise scheduler draws two distinct agents,
// so n = 0 and n = 1 are unconstructible (and RemoveAgents refuses to
// churn a population down to them — DenseSim.Step, for one, would panic
// drawing a partner at n = 1).
func validatePopSize(n int64) {
	if n < 2 {
		panic(fmt.Sprintf(
			"pop: population size %d < 2 (the pairwise scheduler needs two distinct agents)", n))
	}
	// Guard the int64 → int narrowing explicitly: the dense backend
	// advertises n up to 10¹⁰, which silently truncates where int is 32
	// bits.
	if n > math.MaxInt {
		panic(fmt.Sprintf(
			"pop: population size %d exceeds this platform's %d-bit int; multiset populations beyond 2³¹ need a 64-bit build",
			n, strconv.IntSize))
	}
}

// checkJoin validates an AddAgents call on a population of n agents.
func checkJoin(n, k int) {
	if k < 0 {
		panic(fmt.Sprintf("pop: AddAgents called with negative count %d", k))
	}
	if int64(n)+int64(k) > math.MaxInt {
		panic(fmt.Sprintf(
			"pop: AddAgents(%d) would grow the population of %d past this platform's %d-bit int",
			k, n, strconv.IntSize))
	}
}

// checkRemoval validates a RemoveAgents call on a population of n agents:
// removal must leave the 2-agent minimum in place.
func checkRemoval(n, k int) {
	if k < 0 {
		panic(fmt.Sprintf("pop: RemoveAgents called with negative count %d", k))
	}
	if n-k < 2 {
		panic(fmt.Sprintf(
			"pop: RemoveAgents(%d) would shrink the population of %d below the 2-agent minimum", k, n))
	}
}

// validateCounts checks a state-count multiset's shape (parallel slices,
// no negative counts, population of at least 2 that fits an int) and
// returns its total, shared by the multiset engine constructors. The
// total is overflow-checked: counts wrapping int64 into a small sum would
// otherwise build an engine whose counts disagree with its size.
func validateCounts[S comparable](states []S, counts []int64) int64 {
	if len(states) != len(counts) {
		panic(fmt.Sprintf("pop: %d states with %d counts", len(states), len(counts)))
	}
	var total int64
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("pop: negative count %d for state %v", c, states[i]))
		}
		if c > math.MaxInt64-total {
			panic(fmt.Sprintf("pop: population size exceeds %d: the state counts overflow int64", int64(math.MaxInt64)))
		}
		total += c
	}
	validatePopSize(total)
	return total
}

// runUntil is the single RunUntil implementation shared by the engines,
// so that the check-boundary semantics (predicate evaluated only at
// checkEvery multiples, maxTime measured from the call) are identical by
// construction. A check advances ⌊checkEvery·n⌋ interactions, as RunTime
// does, but at least one: below one interaction per check RunTime would
// run none, and time would never reach maxTime.
func runUntil[S comparable](e Engine[S], pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64) {
	if checkEvery <= 0 {
		panic("pop: RunUntil requires checkEvery > 0")
	}
	start := e.Time()
	if pred(e) {
		return true, start
	}
	for e.Time()-start < maxTime {
		e.Run(max(1, int64(checkEvery*float64(e.N()))))
		if pred(e) {
			return true, e.Time()
		}
	}
	return false, e.Time()
}
