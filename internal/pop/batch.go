// BatchSim: the batched multiset simulation backend.
//
// # Representation
//
// Agents are anonymous, so an execution is fully described by its
// configuration trajectory — the multiset of states over time. BatchSim
// stores only that multiset: states are interned to dense int32 ids and a
// counts vector holds how many agents occupy each. All per-interaction
// work then scales with q, the number of currently-live distinct states
// (O(log⁴ n) for this paper's protocols), instead of touching an n-sized
// agent array whose random accesses dominate the sequential engine's cost
// at large n. The representation, its compaction and the transition
// cache are the multiset core BatchSim shares with DenseSim (multiset.go).
// So is everything below: the slot batches and the fallback are methods
// of that core, which is how DenseSim runs them while it delegates.
//
// # Batching
//
// Following Berenbrink et al. (arXiv:2005.03584), interactions are
// processed in collision-free batches. Whether the scheduler's t-th pair
// since the batch began reuses an already-seen agent depends only on n,
// not on states: the next interaction is collision-free with probability
// (n−2t)(n−2t−1)/(n(n−1)) after t collision-free interactions. BatchSim
// inverse-transform samples the run length ℓ until the first collision
// (or a cap), giving a run of ℓ interactions among 2ℓ distinct agents — a
// uniform sample without replacement from the population. The 2ℓ
// participant states are therefore a multivariate hypergeometric draw
// from the counts vector, taken either state-by-state (when batches are
// long relative to q, with a Fisher–Yates shuffle realizing the uniformly
// random pairing) or slot-by-slot through a Fenwick tree (when q is large
// relative to the batch). Both run serially under one stream derived from
// a seed word the batch draws from the main stream (leafRand), at every
// batch length. The collision interaction itself, when one was
// sampled, is resolved exactly: the colliding pair is drawn from the
// correct conditional distribution over batch participants (whose
// post-interaction states are known) and outsiders. The configuration
// trajectory is consequently distributed identically to the sequential
// engine's, up to float64 rounding in two inverse-transform samplers (the
// same caveat as any floating-point sampler) — batching is a change of
// simulation algorithm, not of model. The run-length survival product
// depends only on n, so the core keeps it as a table of checkpoints every
// 64 steps: a draw costs a binary search plus at most one stride,
// O(log ℓ + 64) rather than O(ℓ), and returns exactly what the
// step-by-step walk would.
//
// # Fallback
//
// Protocols (or phases) whose live state count exceeds WithBatchThreshold
// get no benefit from multiset bookkeeping, so the slot batches
// materialize an explicit agent array and step it sequentially — the
// exact reference semantics — re-entering batch mode if the configuration
// re-concentrates. Above MaxAgentArray agents they keep batching instead:
// slower at high live-state counts, but never an allocation beyond memory.
// The batched engine cannot provide per-agent interaction counts
// (WithInteractionCounts); use the sequential engine for those
// experiments.
package pop

import "math/rand/v2"

const (
	// defaultBatchThreshold is the live-state cutoff beyond which the
	// multiset representation stops paying for itself.
	defaultBatchThreshold = 8192
	// maxBatchPairs caps a single batch's length (slots memory and
	// scratch sizes scale with it).
	maxBatchPairs = 1 << 16
	// stateSampleFactor: batches with at least stateSampleFactor slots
	// per live state sample slot counts state-by-state (hypergeometric
	// chain + shuffle); shorter ones sample slot-by-slot (Fenwick).
	stateSampleFactor = 2
	// batchHeavyMean: within the state-by-state path, a state is sampled
	// with its own hypergeometric draw only while it expects at least
	// this many slots; lighter states switch to per-slot suffix draws.
	batchHeavyMean = 8
	// seqRecheckFactor: in fallback mode, live states are recounted every
	// seqRecheckFactor·n interactions to decide on re-entering batch
	// mode.
	seqRecheckFactor = 2
)

// MaxAgentArray caps the populations held as an agent array, one element
// per agent (about a gigabyte at this cap for a 16-byte state). An
// allocation beyond the machine's memory is a fatal runtime error that no
// recover catches, so the slot batches never materialize their fallback
// above the cap, and sweep.MaxSeqN refuses sequential requests above it.
const MaxAgentArray = 1 << 26

// BatchSim is the batched multiset engine: the multiset core running its
// slot batches. See the file comment for the algorithm. It is not safe for
// concurrent use; run independent trials on independent values.
type BatchSim[S comparable] struct {
	multiset[S]
}

// newBatchSim builds a BatchSim of n agents with everything but its
// initial configuration, shared by the constructors below.
func newBatchSim[S comparable](n int, rule Rule[S], opts []Option) *BatchSim[S] {
	var o options
	Combine(opts...)(&o)
	return &BatchSim[S]{multiset: newShell("batched", n, rule, o)}
}

// NewBatch constructs a batched multiset simulator; the arguments mirror
// New. It panics if WithInteractionCounts was requested (the multiset
// representation has no agent identities).
func NewBatch[S comparable](n int, initial func(i int, r *rand.Rand) S, rule Rule[S], opts ...Option) *BatchSim[S] {
	validatePopSize(int64(n))
	b := newBatchSim(n, rule, opts)
	b.fillFunc(initial)
	return b
}

// NewBatchFromCounts constructs a batched multiset simulator directly from
// a configuration multiset given as parallel slices: states[i] is held by
// counts[i] agents (zero-count entries are skipped, duplicate states
// accumulate).
func NewBatchFromCounts[S comparable](states []S, counts []int64, rule Rule[S], opts ...Option) *BatchSim[S] {
	b := newBatchSim(int(validateCounts(states, counts)), rule, opts)
	b.fillCounts(states, counts)
	return b
}

// Run executes k interactions.
func (b *BatchSim[S]) Run(k int64) { b.runSlots(k) }

// RunTime executes t units of parallel time (t·n interactions, rounded
// down).
func (b *BatchSim[S]) RunTime(t float64) {
	b.Run(int64(t * float64(b.n)))
}

// RunUntil has the semantics documented on Engine.RunUntil, shared with
// the sequential engine.
func (b *BatchSim[S]) RunUntil(pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64) {
	return runUntil[S](b, pred, checkEvery, maxTime)
}

// Interactions returns the number of interactions executed so far.
func (m *multiset[S]) Interactions() int64 { return m.interacts }

// Stats returns execution diagnostics.
func (m *multiset[S]) Stats() Stats { return m.st }

// Time returns the parallel time elapsed, accumulated per churn segment
// (see Engine.Time); on a fixed population it equals interactions / n.
func (m *multiset[S]) Time() float64 { return m.timeAt(m.interacts) }

// AddAgents adds k agents in state st (a join event): one count edit in
// multiset mode, k appended agents in the agent-array fallback. A join
// that would grow the fallback's array past MaxAgentArray leaves the
// fallback instead; the slot batches then keep batching above the cap.
func (m *multiset[S]) AddAgents(st S, k int) {
	checkJoin(m.n, k)
	if k == 0 {
		return
	}
	m.beginSegment(m.interacts)
	if m.seqMode && m.n+k > MaxAgentArray {
		m.recountFromAgents()
		m.seqMode, m.agents = false, nil // the array can never hold this population
		m.st.Reentries++
	}
	if m.seqMode {
		m.intern(st) // keep DistinctStates exact, as seqStep does
		for i := 0; i < k; i++ {
			m.agents = append(m.agents, st)
		}
	} else {
		m.addCount(m.intern(st), int64(k))
	}
	m.n += k
}

// RemoveAgents removes k agents chosen uniformly at random without
// replacement (a leave event), refusing to shrink the population below 2.
// In multiset mode the removed agents' states are a multivariate
// hypergeometric sample of the counts vector.
func (m *multiset[S]) RemoveAgents(k int) {
	checkRemoval(m.n, k)
	if k == 0 {
		return
	}
	m.beginSegment(m.interacts)
	if m.seqMode {
		for r := k; r > 0; r-- {
			n := len(m.agents)
			j := m.rng.IntN(n)
			m.agents[j] = m.agents[n-1]
			m.agents = m.agents[:n-1]
		}
	} else {
		m.comp = m.removeSample(m.rng.Uint64(), int64(k), m.comp)
	}
	m.n -= k
}

// DistinctStates returns the number of distinct states observed since the
// initial configuration. Unlike the sequential engine, the multiset
// engines track this as a side effect of interning and need no option
// (a state that dies, is compacted away and reappears counts again).
func (m *multiset[S]) DistinctStates() int { return m.distinct }

// LiveStates returns the number of distinct states currently present.
func (m *multiset[S]) LiveStates() int {
	if m.seqMode {
		m.recountFromAgents()
	}
	return m.live
}

// Counts returns the configuration vector.
func (m *multiset[S]) Counts() map[S]int {
	if m.seqMode {
		c := make(map[S]int, 64)
		for _, a := range m.agents {
			c[a]++
		}
		return c
	}
	c := make(map[S]int, m.live)
	for id, cnt := range m.counts {
		if cnt > 0 {
			c[m.states[id]] = int(cnt)
		}
	}
	return c
}

// Count returns the number of agents satisfying pred.
func (m *multiset[S]) Count(pred func(S) bool) int {
	if m.seqMode {
		k := 0
		for _, a := range m.agents {
			if pred(a) {
				k++
			}
		}
		return k
	}
	var k int64
	for id, cnt := range m.counts {
		if cnt > 0 && pred(m.states[id]) {
			k += cnt
		}
	}
	return int(k)
}

// All reports whether every agent satisfies pred.
func (m *multiset[S]) All(pred func(S) bool) bool {
	if m.seqMode {
		for _, a := range m.agents {
			if !pred(a) {
				return false
			}
		}
		return true
	}
	for id, cnt := range m.counts {
		if cnt > 0 && !pred(m.states[id]) {
			return false
		}
	}
	return true
}

// Any reports whether at least one agent satisfies pred.
func (m *multiset[S]) Any(pred func(S) bool) bool {
	return !m.All(func(s S) bool { return !pred(s) })
}

// Step executes one interaction. In multiset mode this is an exact
// single-interaction multiset step; it costs O(q) and exists for API
// completeness — Run amortizes far better.
func (m *multiset[S]) Step() {
	if m.seqMode {
		m.seqStep()
		return
	}
	m.step()
}

// runSlots executes k interactions in slot batches, switching to and from
// the agent-array fallback on the live-state threshold while the
// population fits under MaxAgentArray.
func (m *multiset[S]) runSlots(k int64) {
	for k > 0 {
		if m.seqMode {
			k -= m.seqRun(k)
			continue
		}
		if m.live > m.qMax && m.n <= MaxAgentArray {
			m.materialize()
			continue
		}
		k -= m.advance(k, m.slotBatch)
	}
}

// slotBatch simulates one collision-free slot batch (plus its collision
// interaction, if one was sampled) of at most kmax interactions, and
// returns how many interactions it executed. Every batch draws one seed
// word and runs the serial chains under its root node stream (leafRand),
// whatever its length.
func (m *multiset[S]) slotBatch(kmax int64) int64 {
	ell, collided := m.batchLength(kmax, maxBatchPairs)
	if ell == 0 {
		m.step()
		return 1
	}
	parts := 2 * ell
	seed := m.rng.Uint64()
	if cap(m.slots) < int(parts)+2 {
		m.slots = make([]int32, parts+2)
	}
	slots := m.slots[:parts]

	// Draw the 2ℓ participant states without replacement and pair them.
	r := m.leafRand(seed)
	if parts >= int64(stateSampleFactor*m.live) {
		m.sampleSlotsByState(r, slots)
	} else {
		m.sampleSlotsByFenwick(r, slots)
	}

	// Apply the rule to each ordered pair, rewriting the slot array in
	// place with the post-interaction states.
	for i := int64(0); i < parts; i += 2 {
		slots[i], slots[i+1], _ = m.resolve(slots[i], slots[i+1], 1)
	}
	if collided {
		slots = m.collisionStep(slots)
	}

	// Commit participants' post states.
	for _, id := range slots {
		m.addCount(id, 1)
	}
	return m.endBatch(ell, collided)
}

// sampleSlotsByState fills slots with a uniform without-replacement sample
// of participant states in O(q·H + |slots|) — the removeCountsChain draw,
// recorded slot by slot in id order as it debits the counts — then a
// Fisher–Yates shuffle realizes the uniformly random pairing. All draws
// come from r.
func (m *multiset[S]) sampleSlotsByState(r *rand.Rand, slots []int32) {
	w := 0
	removeCountsChain(r, &m.tree, m.counts, 0, len(m.counts), m.total, int64(len(slots)), func(id int, k int64) {
		m.addCount(int32(id), -k)
		for ; k > 0; k-- {
			slots[w] = int32(id)
			w++
		}
	})
	// Fisher–Yates: a uniform permutation makes consecutive slot pairs a
	// uniformly random ordered pairing of the sampled multiset.
	for i := len(slots) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		slots[i], slots[j] = slots[j], slots[i]
	}
}

// sampleSlotsByFenwick fills slots via per-slot weighted draws from r
// without replacement in O(|slots|·log q), for configurations whose state
// count is large relative to the batch. Counts are debited as part of
// sampling.
func (m *multiset[S]) sampleSlotsByFenwick(r *rand.Rand, slots []int32) {
	m.tree.reset(m.counts)
	remaining := m.total
	for i := range slots {
		id := int32(m.tree.findAndDec(r.Int64N(remaining)))
		remaining--
		m.addCount(id, -1)
		slots[i] = id
	}
}

// collisionStep resolves the interaction that ended a batch (see collide)
// with the participants' post states in slots. It returns the updated
// pending-commit slice (collision participants replaced by their
// outputs).
func (m *multiset[S]) collisionStep(slots []int32) []int32 {
	oa, ob := m.collide(int64(len(slots)), func() int32 {
		j := m.rng.IntN(len(slots))
		id := slots[j]
		slots[j] = slots[len(slots)-1]
		slots = slots[:len(slots)-1]
		return id
	})
	return append(slots, oa, ob)
}

// materialize switches to the sequential fallback: the multiset is
// expanded into an explicit agent array (order is irrelevant — agents are
// anonymous and the scheduler is exchangeable) and stepped exactly as the
// reference engine does.
func (m *multiset[S]) materialize() {
	if cap(m.agents) < m.n {
		m.agents = make([]S, 0, m.n)
	}
	m.agents = m.agents[:0]
	for id, c := range m.counts {
		for ; c > 0; c-- {
			m.agents = append(m.agents, m.states[id])
		}
	}
	m.seqMode = true
	m.seqRecheck = int64(seqRecheckFactor) * int64(m.n)
	m.st.Fallbacks++
}

// seqStep is one agent-array interaction, identical in distribution to
// Sim.Step. Outputs are interned so DistinctStates stays exact and
// re-entry checks can count live states.
func (m *multiset[S]) seqStep() {
	i := m.rng.IntN(m.n)
	j := m.rng.IntN(m.n - 1)
	if j >= i {
		j++
	}
	sa, sb := m.rule(m.agents[i], m.agents[j], m.ruleRng)
	m.intern(sa)
	m.intern(sb)
	m.agents[i], m.agents[j] = sa, sb
	m.interacts++
	m.st.SeqInteractions++
}

// seqRun executes up to k sequential-mode interactions, returning how many
// it ran; it periodically recounts live states and re-enters batch mode
// when the configuration re-concentrates.
func (m *multiset[S]) seqRun(k int64) int64 {
	run := min(k, m.seqRecheck)
	for i := int64(0); i < run; i++ {
		m.seqStep()
	}
	m.seqRecheck -= run
	if m.seqRecheck <= 0 {
		m.recountFromAgents()
		if m.live <= m.qMax/2 {
			m.seqMode = false
			m.compact()
			m.st.Reentries++
		} else {
			m.seqRecheck = int64(seqRecheckFactor) * int64(m.n)
		}
	}
	return run
}

// recountFromAgents rebuilds the counts vector from the agent array.
func (m *multiset[S]) recountFromAgents() {
	clear(m.counts)
	m.total = 0
	m.live = 0
	for _, a := range m.agents {
		m.addCount(m.intern(a), 1)
	}
}
