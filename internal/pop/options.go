package pop

type options struct {
	seed              uint64
	trackStates       bool
	trackInteractions bool
	backend           Backend
	batchThreshold    int
	denseThreshold    int
	table             any // *Compiled[S]; resolved by attachTable
}

// Option configures a simulation engine at construction time.
type Option func(*options)

// Combine merges several options into one, for callers that thread a
// single configuration value through option-typed plumbing.
func Combine(opts ...Option) Option {
	return func(o *options) {
		for _, opt := range opts {
			opt(o)
		}
	}
}

// WithSeed makes the simulation deterministic: the same seed, population
// size, initializer, rule and backend produce the identical execution.
// (Different backends consume the random stream differently and therefore
// produce different — identically distributed — executions.)
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithStateTracking records every distinct state that appears during the
// execution, enabling DistinctStates — the paper's state-complexity measure
// (Lemma 3.9: O(log⁴ n) states w.h.p.). For the sequential engine tracking
// costs two map insertions per interaction; leave it off for timing
// experiments. The batched engine tracks states intrinsically and ignores
// this option.
func WithStateTracking() Option {
	return func(o *options) { o.trackStates = true }
}

// WithInteractionCounts records how many interactions each agent has
// participated in, enabling InteractionCount and MaxInteractionCount
// (Lemma 3.6 / Corollary 3.7 experiments). Only the sequential engine has
// agent identities: NewBatch panics if this is set, and NewEngine with
// Auto selects the sequential backend.
func WithInteractionCounts() Option {
	return func(o *options) { o.trackInteractions = true }
}

// WithBackend selects the simulation engine implementation used by
// NewEngine / NewEngineFromConfig (default Auto). Constructors of a
// concrete engine (New, NewBatch) ignore it.
func WithBackend(b Backend) Option {
	return func(o *options) { o.backend = b }
}

// WithParallelism has no effect; it is kept for source compatibility.
// Every engine runs a trial on one core, and every value of p takes the
// byte-identical trajectory. Run independent trials in parallel instead
// (the sweep worker pool).
func WithParallelism(p int) Option {
	return func(*options) {}
}

// WithBatchThreshold overrides the slot batches' live-state fallback
// threshold: when the number of distinct states simultaneously present
// exceeds q, BatchSim — or a DenseSim delegated to slot batches —
// materializes an agent array and steps sequentially until the
// configuration re-concentrates; above MaxAgentArray agents it keeps
// running slot batches instead. The default (8192) suits protocols with
// polylog(n) live states; tests use small values to exercise the fallback
// path.
func WithBatchThreshold(q int) Option {
	return func(o *options) { o.batchThreshold = q }
}

// WithTable attaches a compiled transition table (CompileRule) to the
// engine, which must run that table's compiled rule. The multiset
// backends then resolve declared deterministic transitions by direct
// table lookup instead of the randomness-counting cache probe — a
// declared-deterministic table never invokes the rule — and pre-size
// their interning maps for the declared state set. Trajectories are
// byte-identical with and without the option (see table.go); it only
// changes how transitions are resolved. The sequential engine ignores
// it. Attaching a table compiled for a different state type panics at
// engine construction.
func WithTable[S comparable](c *Compiled[S]) Option {
	return func(o *options) { o.table = c }
}

// WithDenseThreshold overrides the count-vector engine's live-state
// delegation threshold: when the number of distinct states simultaneously
// present exceeds q, DenseSim's pair-matrix batches stop paying relative
// to slot batching and it runs the slot batches of its multiset core in
// place until the configuration re-concentrates below q/2. The default scales with the
// expected collision-free batch length (~√n/6); tests use small values to
// exercise the delegation path.
func WithDenseThreshold(q int) Option {
	return func(o *options) { o.denseThreshold = q }
}
