// The multiset core shared by BatchSim and DenseSim.
//
// Both multiset engines store the configuration the same way — states
// interned to dense int32 ids with a counts vector, compacted so ids stay
// dense and ordered by decreasing count — and resolve transitions the same
// way. The multiset type below owns that representation, the rng streams,
// the transition cache and the declared-table view, the collision-free
// batch framing (run-length prologue, post-multiset collision step, commit
// and conservation check), the node-path-seeded composition draw
// (removeSample), churn, the snapshot body, the execution counters (Stats), and the
// slot batches with their agent-array fallback (batch.go), once.
// BatchSim is that core alone. DenseSim embeds the same core and adds the
// pair-count matrix; it switches to the core's slot batches in place
// (delegation) while the live-state count is too high for the matrix to
// pay.
//
// # Transition caching
//
// Rules are opaque randomized functions, but most protocol transitions are
// deterministic. The engines feed rules a rand.Rand whose Source counts
// how many random words the rule consumes: a (receiver, sender) state pair
// whose transition consumed none is a pure function of its inputs and is
// cached in a direct-mapped table keyed by the id pair, so subsequent
// interactions of that pair skip the rule entirely (conflicting pairs
// simply evict each other). This relies on rules being pure functions of
// (rec, sen, randomness) — true of every protocol in this repository and
// required by the Rule contract. Compaction remaps ids, so it advances a
// generation stamp embedded in the keys and carries the surviving hot
// entries across.
//
// The table is sized to the live pair working set, q² for q live states:
// every compaction sizes it to nextPow2(4q²) slots, clamped to
// [2^cacheMinLog, 2^cacheMaxLog], and a batch boundary grows it (never
// shrinks it) once 4q² exceeds twice the slot count. A core is built with
// no table at all; the construction compaction sizes the first one. The
// cache holds only transitions that drew no randomness, so its size moves
// the CacheHits/RuleCalls counters but never a trajectory.
package pop

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
)

// countingSource wraps a rand.Source and counts the words drawn through
// it, letting the multiset engines detect whether a rule consumed
// randomness.
type countingSource struct {
	src   rand.Source
	words uint64
}

func (c *countingSource) Uint64() uint64 {
	c.words++
	return c.src.Uint64()
}

// cacheSlot is one direct-mapped transition-cache entry: a
// generation-stamped (receiver, sender) id pair and its packed outputs.
type cacheSlot struct {
	key uint64 // gen<<44 | receiver<<22 | sender; 0 = empty (gen starts at 1)
	out uint64 // receiver output << 32 | sender output
}

// cacheMaxID bounds the ids packable into a cache key (22 bits each, with
// the remaining 20 bits holding the compaction generation).
const cacheMaxID = 1 << 22

// cacheMinLog and cacheMaxLog clamp the transition cache to 2⁸..2¹⁶
// slots of 16 bytes (4 KiB..1 MiB); see the file comment.
const (
	cacheMinLog = 8
	cacheMaxLog = 16
)

// Stats reports how an engine run was executed; it is diagnostic only
// (tests, benchmarks, tuning and cmd/popsim -stats). Every engine returns
// it from Engine.Stats, and every counter only grows over a run. The
// sequential engine counts SeqInteractions alone; the multiset engines
// share the core's counters, and DenseSim adds the last four.
type Stats struct {
	// Batches is the number of collision-free batches processed: slot
	// batches, and DenseSim's pair-matrix batches.
	Batches int64
	// BatchedInteractions counts interactions simulated inside batches
	// (including their collision steps).
	BatchedInteractions int64
	// SeqInteractions counts interactions stepped on an agent array: all
	// of the sequential engine's, and the slot batches' fallback's.
	SeqInteractions int64
	// Fallbacks / Reentries count the slot batches' switches to the
	// agent-array fallback and back.
	Fallbacks int64
	Reentries int64
	// CacheHits counts interactions served from the deterministic-
	// transition cache (with multiplicity); RuleCalls counts actual rule
	// invocations. TableHits counts interactions resolved by the
	// declared-table bypass (WithTable), which skips both. Interactions
	// stepped on an agent array call the rule uncounted. CacheHits and
	// RuleCalls depend on the cache's size and eviction history: they are
	// not trajectory state, and a restored engine starts its cache cold.
	CacheHits int64
	RuleCalls int64
	TableHits int64
	// Compactions counts interning-table rebuilds.
	Compactions int64
	// DelegatedInteractions counts DenseSim's interactions executed while
	// delegated (the live-state count exceeded the delegation cutoff), in
	// slot batches or their fallback.
	DelegatedInteractions int64
	// Delegations / DenseReentries count DenseSim's switches from
	// pair-matrix to slot batches and back.
	Delegations    int64
	DenseReentries int64
	// PairCells counts nonzero cells of DenseSim's sampled pair
	// matrices — the q²-shaped part of its work.
	PairCells int64
}

// multiset is the configuration, randomness and transition machinery both
// multiset engines share. See the file comment.
type multiset[S comparable] struct {
	pcg      *rand.PCG // rng's source, retained for snapshotting
	rng      *rand.Rand
	leaf     *nodeStream     // the node stream behind leafRand and removeSample
	ruleRand *countingSource // the same PCG, counting the words rules draw
	ruleRng  *rand.Rand
	rule     Rule[S]
	n        int

	// interacts counts the interactions executed so far.
	interacts int64
	// Per-segment parallel-time accounting (see Engine.Time). segStart is
	// measured on the engine's Interactions() scale.
	timeBase float64
	segStart int64

	// Interning. states/counts are parallel: counts[id] agents currently
	// hold states[id]. live counts the ids with counts > 0; distinct
	// counts every state ever interned (the DistinctStates measure).
	states   []S
	pos      map[S]int32
	counts   []int64
	total    int64 // running Σcounts; must equal n (conservation invariant)
	live     int
	distinct int

	qMax int // live-state threshold of the slot batches' agent-array fallback

	// Agent-array fallback of the slot batches (batch.go): the mode
	// flag, the agents, and the interactions until the next re-entry
	// check. While seqMode is set the agents are the configuration and
	// the counts vector is stale.
	seqMode    bool
	agents     []S
	seqRecheck int64

	// Direct-mapped transition cache, sized by the file comment's policy
	// (nil until the first compaction); a key's slot is the top
	// log₂ len(cache) = 64 − cacheShift bits of its hash. Compaction
	// remaps ids, so it bumps cacheGen, implicitly invalidating every
	// older entry. cachePin, when nonzero, replaces the policy's log₂
	// size (a test hook; 0 in production).
	cache      []cacheSlot
	cacheShift uint
	cacheGen   uint64
	cachePin   uint

	// Declared-table bypass (WithTable): the compiled table plus the
	// engine-id ↔ table-id translation, rebuilt on compaction. nil when
	// no table is attached.
	tbl *tableView[S]

	// Scratch: the Fenwick tree behind per-item chain draws; the batch's
	// post-interaction multiset (indexed by state id, growing as rule
	// outputs intern new states mid-batch); churn removal's composition;
	// removeSample's counts prefix sums; the slot batches' participant
	// slots (pre states, then post states).
	tree  fenwick
	post  []int64
	comp  []int64
	cum   []int64
	slots []int32

	// runs memoizes the run-length survival product for the current n. It
	// is a pure function of n, so snapshots omit it and a restored core
	// rebuilds it on its first batch.
	runs runLengths

	// batchEvents is a test hook fired at every batch commit (nil in
	// production).
	batchEvents func(ell int, collided bool)

	st Stats
}

// newMultiset builds a core with rng streams on pcg, an empty interning
// table and no transition cache yet — the state every constructor and
// Restore start from.
func newMultiset[S comparable](pcg *rand.PCG, rule Rule[S], tbl *tableView[S]) multiset[S] {
	cs := &countingSource{src: pcg}
	return multiset[S]{
		pcg:      pcg,
		rng:      rand.New(pcg),
		leaf:     newNodeStream(),
		ruleRand: cs,
		ruleRng:  rand.New(cs),
		rule:     rule,
		pos:      make(map[S]int32, posSizeFor(tbl)),
		tbl:      tbl,
		cacheGen: 1,
	}
}

// newShell is newMultiset for an engine constructor: it checks the
// options a multiset engine cannot honor, seeds the rng from WithSeed,
// attaches WithTable and sets the fallback threshold from
// WithBatchThreshold. backend names the engine in panic messages.
func newShell[S comparable](backend string, n int, rule Rule[S], o options) multiset[S] {
	if rule == nil {
		panic("pop: nil rule")
	}
	if o.trackInteractions {
		panic("pop: the " + backend + " backend cannot track per-agent interaction counts; use WithBackend(Sequential)")
	}
	m := newMultiset(rand.NewPCG(o.seed, o.seed^0x9e3779b97f4a7c15), rule, attachTable[S](o))
	m.n = n
	m.qMax = defaultBatchThreshold
	if o.batchThreshold > 0 {
		m.qMax = o.batchThreshold
	}
	return m
}

// fillFunc loads the initial configuration initial(i, rng), i < n, then
// compacts it.
func (m *multiset[S]) fillFunc(initial func(i int, r *rand.Rand) S) {
	for i := 0; i < m.n; i++ {
		m.addCount(m.intern(initial(i, m.rng)), 1)
	}
	m.compact()
}

// fillCounts loads the initial configuration from a validated state-count
// multiset, then compacts it.
func (m *multiset[S]) fillCounts(states []S, counts []int64) {
	for i, c := range counts {
		if c > 0 {
			m.addCount(m.intern(states[i]), c)
		}
	}
	m.compact()
}

// intern returns the dense id of state s, assigning one if new.
// Compaction drops dead states from the table, so a state that dies and
// later reappears is counted again by DistinctStates.
func (m *multiset[S]) intern(s S) int32 {
	if id, ok := m.pos[s]; ok {
		return id
	}
	id := int32(len(m.states))
	m.states = append(m.states, s)
	m.counts = append(m.counts, 0)
	m.pos[s] = id
	m.distinct++
	if m.tbl != nil {
		m.tbl.noteIntern(s, id)
	}
	return id
}

// addCount adjusts counts[id] by d, maintaining the live-state count and
// the conservation total.
func (m *multiset[S]) addCount(id int32, d int64) {
	c := m.counts[id]
	nc := c + d
	if nc < 0 {
		panic("pop: multiset state count went negative")
	}
	m.counts[id] = nc
	m.total += d
	if c == 0 && nc > 0 {
		m.live++
	} else if c > 0 && nc == 0 {
		m.live--
	}
}

// addPost adds c to the batch's post multiset, growing it when a rule
// output interned a new state mid-batch.
func (m *multiset[S]) addPost(id int32, c int64) {
	for int(id) >= len(m.post) {
		m.post = append(m.post, 0)
	}
	m.post[id] += c
}

// resizeZero returns s with length n and every element zero, reusing its
// backing array when possible.
func resizeZero[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// N returns the population size.
func (m *multiset[S]) N() int { return m.n }

// timeAt is Engine.Time for an engine that has executed now interactions.
func (m *multiset[S]) timeAt(now int64) float64 {
	return m.timeBase + float64(now-m.segStart)/float64(m.n)
}

// beginSegment folds the current churn segment into timeBase before a
// population-size change; now is the engine's Interactions().
func (m *multiset[S]) beginSegment(now int64) {
	m.timeBase = m.timeAt(now)
	m.segStart = now
}

// drawLinear maps u ∈ [0, Σcounts) to a state id by linear scan.
func (m *multiset[S]) drawLinear(u int64) int32 {
	for id, c := range m.counts {
		if u < c {
			return int32(id)
		}
		u -= c
	}
	panic("pop: multiset draw out of range")
}

// drawOut removes and returns one agent drawn uniformly from the o agents
// still in the counts vector.
func (m *multiset[S]) drawOut(o int64) int32 {
	id := m.drawLinear(m.rng.Int64N(o))
	m.addCount(id, -1)
	return id
}

// step executes one exact single-interaction multiset step: the pair of
// states is drawn from the same distribution the agent-level scheduler
// induces. It costs O(q) and exists for API completeness and short
// remainders — batches amortize far better.
func (m *multiset[S]) step() {
	ra := m.drawOut(int64(m.n))
	rb := m.drawOut(int64(m.n) - 1)
	oa, ob, _ := m.resolve(ra, rb, 1)
	m.addCount(oa, 1)
	m.addCount(ob, 1)
	m.interacts++
}

// removeSample removes k agents chosen uniformly at random without
// replacement and returns their per-state composition in dst (resized to
// the id range): a multivariate hypergeometric sample of the counts
// vector drawn by mvhSplitComp under the node streams of seed — a single
// chain leaf at the root while at most mvhLeafClasses states exist — and
// debited in id order. seed fully determines the draw. Churn removal
// draws through it.
func (m *multiset[S]) removeSample(seed uint64, k int64, dst []int64) []int64 {
	q := len(m.counts)
	dst = resizeZero(dst, q)
	m.cum = prefixSums(m.cum, m.counts)
	mvhSplitComp(m.leaf, &m.tree, seed, 1, m.counts, m.cum, 0, q, m.total, k, dst)
	for id, c := range dst {
		if c > 0 {
			m.addCount(int32(id), -c)
		}
	}
	return dst
}

// leafRand returns a batch's stream: the root node stream of the batch's
// seed word, (deriveSeed(seed, 1), 1), on the engine's own node stream,
// so that no batch allocates a stream.
func (m *multiset[S]) leafRand(seed uint64) *rand.Rand {
	return m.leaf.at(deriveSeed(seed, 1), 1)
}

// advance runs at most k multiset-mode interactions and returns how many
// ran: one exact step for short remainders and tiny populations,
// otherwise one batch of the engine's runBatch, compacting first when
// dead states dominate the interning tables, or else growing the
// transition cache when the live pairs outgrew it (see the file comment).
func (m *multiset[S]) advance(k int64, runBatch func(kmax int64) int64) int64 {
	if k < 8 || m.n < 8 {
		m.step()
		return 1
	}
	if len(m.states) >= 4*m.live && len(m.states) >= 256 {
		m.compact()
	} else if 4*int64(m.live)*int64(m.live) > 2*int64(len(m.cache)) {
		if lg := m.cacheLogWanted(); 1<<lg > len(m.cache) {
			m.rehomeCache(lg)
		}
	}
	return runBatch(k)
}

// batchLength samples the next batch's collision-free run length ℓ from
// the core's checkpointed survival table (see runLengths) in O(log ℓ)
// plus one stride of the product. A cap from kmax, the batch kind's
// maxPairs or the population size just ends the batch early with no
// collision interaction, which composes exactly — each batch draws its
// participants from the fully committed configuration. ℓ = 0 is possible
// only when a cap degenerated; callers then take one exact step instead.
func (m *multiset[S]) batchLength(kmax, maxPairs int64) (ell int64, collided bool) {
	n := int64(m.n)
	return m.runs.draw(m.rng, n, min(maxPairs, kmax, n/3+1))
}

// finishPost ends a batch whose participants' post states were
// accumulated in the post multiset: it resolves the collision interaction
// (if one was sampled), commits post, and closes the batch.
func (m *multiset[S]) finishPost(ell int64, collided bool) int64 {
	if collided {
		left := 2 * ell
		oa, ob := m.collide(left, func() int32 {
			u := m.rng.Int64N(left)
			for id, c := range m.post {
				if u < c {
					m.post[id]--
					left--
					return int32(id)
				}
				u -= c
			}
			panic("pop: multiset collision draw out of range")
		})
		m.addPost(oa, 1)
		m.addPost(ob, 1)
	}
	for id, c := range m.post {
		if c > 0 {
			m.addCount(int32(id), c)
		}
	}
	return m.endBatch(ell, collided)
}

// endBatch closes a committed batch of ℓ collision-free interactions plus
// the collision interaction (if sampled), checks conservation, and returns
// how many interactions the batch executed.
func (m *multiset[S]) endBatch(ell int64, collided bool) int64 {
	done := ell
	if collided {
		done++
	}
	m.interacts += done
	m.st.Batches++
	m.st.BatchedInteractions += done
	if m.total != int64(m.n) {
		panic(fmt.Sprintf("pop: multiset conservation violated: %d agents after batch, want %d", m.total, m.n))
	}
	if m.batchEvents != nil {
		m.batchEvents(int(ell), collided)
	}
	return done
}

// collide resolves the interaction that ended a batch: an ordered pair of
// distinct agents conditioned on at least one of them being among the
// batch's parts participants. pick removes and returns a uniformly random
// participant's post-interaction state; outsiders are drawn from the
// debited counts. It returns the pair's outputs.
func (m *multiset[S]) collide(parts int64, pick func() int32) (oa, ob int32) {
	o := int64(m.n) - parts
	// Ordered distinct pairs with >=1 participant, by membership pattern.
	bothIn := parts * (parts - 1)
	recIn := parts * o
	r := m.rng.Int64N(bothIn + 2*recIn)
	var ra, rb int32
	switch {
	case r < bothIn:
		ra = pick()
		rb = pick()
	case r < bothIn+recIn:
		ra = pick()
		rb = m.drawOut(o)
	default:
		rb = pick()
		ra = m.drawOut(o)
	}
	oa, ob, _ = m.resolve(ra, rb, 1)
	return oa, ob
}

// resolve returns the post-interaction state ids for the ordered pair
// (receiver, sender), consulting the declared-table bypass first, then
// the deterministic-transition cache, before invoking the rule. det
// reports a deterministic transition — one a table or cache hit, or a
// rule call that consumed no randomness, vouches for — which the caller
// may apply mult times at once; hit counters are weighted by mult.
func (m *multiset[S]) resolve(ida, idb int32, mult int64) (oa, ob int32, det bool) {
	if t := m.tbl; t != nil {
		if toa, tob, ok := t.probe(ida, idb); ok {
			m.st.TableHits += mult
			// Translate table ids back to engine ids, interning outputs
			// not yet present — receiver first, exactly the order the
			// rule path interns, so trajectories stay byte-identical.
			oa := t.engOf[toa]
			if oa < 0 {
				oa = m.intern(t.c.states[toa])
			}
			ob := t.engOf[tob]
			if ob < 0 {
				ob = m.intern(t.c.states[tob])
			}
			return oa, ob, true
		}
	}
	if oa, ob, ok := m.cacheLookup(ida, idb); ok {
		m.st.CacheHits += mult
		return oa, ob, true
	}
	return m.callRule(ida, idb)
}

// callRule invokes the rule once on the pair through the
// randomness-counting source and caches the transition when it consumed
// no randomness (it is then a pure function of the pair).
func (m *multiset[S]) callRule(ida, idb int32) (oa, ob int32, det bool) {
	before := m.ruleRand.words
	sa, sb := m.rule(m.states[ida], m.states[idb], m.ruleRng)
	m.st.RuleCalls++
	oa, ob = m.intern(sa), m.intern(sb)
	if m.ruleRand.words != before {
		return oa, ob, false
	}
	if ida < cacheMaxID && idb < cacheMaxID {
		m.cacheStore(ida, idb, oa, ob)
	}
	return oa, ob, true
}

// cacheLookup reports the cached deterministic outputs of the ordered
// pair, if present.
func (m *multiset[S]) cacheLookup(ida, idb int32) (oa, ob int32, ok bool) {
	if ida >= cacheMaxID || idb >= cacheMaxID {
		return 0, 0, false
	}
	key := m.cacheGen<<44 | uint64(ida)<<22 | uint64(idb)
	s := m.cache[(key*0x9e3779b97f4a7c15)>>m.cacheShift]
	if s.key != key {
		return 0, 0, false
	}
	return int32(s.out >> 32), int32(s.out & math.MaxUint32), true
}

// cacheStore records the deterministic transition (ida, idb) → (oa, ob)
// under the current generation; ids must be below cacheMaxID.
func (m *multiset[S]) cacheStore(ida, idb, oa, ob int32) {
	key := m.cacheGen<<44 | uint64(ida)<<22 | uint64(idb)
	m.cache[(key*0x9e3779b97f4a7c15)>>m.cacheShift] = cacheSlot{
		key: key, out: uint64(uint32(oa))<<32 | uint64(uint32(ob))}
}

// invalidateCache makes every existing cache entry unmatchable by
// advancing the generation (clearing the table on the rare wrap of the
// 20-bit field, so no pre-wrap entry can alias a post-wrap key).
func (m *multiset[S]) invalidateCache() {
	if m.cacheGen+1 >= 1<<20 {
		clear(m.cache)
		m.cacheGen = 1
		return
	}
	m.cacheGen++
}

// cacheLogWanted is log₂ of the transition cache's size for the current
// live count: the policy's nextPow2(4·live²) slots, clamped, or cachePin
// when a test set one.
func (m *multiset[S]) cacheLogWanted() uint {
	if m.cachePin > 0 {
		return m.cachePin
	}
	want := max(4*int64(m.live)*int64(m.live), 1)
	return min(max(uint(bits.Len64(uint64(want-1))), cacheMinLog), cacheMaxLog)
}

// resizeCache replaces the transition cache with an empty table of
// 1<<lg slots, unless the current one already has that size.
func (m *multiset[S]) resizeCache(lg uint) {
	if len(m.cache) != 1<<lg {
		m.cache, m.cacheShift = make([]cacheSlot, 1<<lg), 64-lg
	}
}

// rehomeCache moves the transition cache's current-generation entries
// into a table of 1<<lg slots.
func (m *multiset[S]) rehomeCache(lg uint) {
	old := m.cache
	m.resizeCache(lg)
	m.carryCache(old, m.cacheGen, nil)
}

// carryCache stores every entry of old stamped with generation gen into
// the current table under the current generation, its ids translated
// through remap (old id → new id, -1 if dead; nil keeps them) and
// entries naming a dead id dropped. old may be the current table itself:
// an entry re-stored there carries the new generation and is skipped
// when the walk reaches it.
func (m *multiset[S]) carryCache(old []cacheSlot, gen uint64, remap []int32) {
	for _, s := range old {
		if s.key == 0 || s.key>>44 != gen {
			continue
		}
		a, c := int32(s.key>>22)&(cacheMaxID-1), int32(s.key)&(cacheMaxID-1)
		oa, ob := int32(s.out>>32), int32(s.out&math.MaxUint32)
		if remap != nil {
			if int(a) >= len(remap) || int(c) >= len(remap) || int(oa) >= len(remap) || int(ob) >= len(remap) {
				continue
			}
			a, c, oa, ob = remap[a], remap[c], remap[oa], remap[ob]
			if a < 0 || c < 0 || oa < 0 || ob < 0 {
				continue
			}
		}
		m.cacheStore(a, c, oa, ob)
	}
}

// compact rebuilds the interning tables over the live states, ordered by
// decreasing count so hot states get small ids (and the samplers' chains
// exhaust early). Runs at construction, at re-entry from the agent-array
// fallback and into pair-matrix batches, and whenever dead states
// dominate the tables.
func (m *multiset[S]) compact() {
	m.st.Compactions++
	type sc struct {
		id int32
		c  int64
	}
	liveIDs := make([]sc, 0, m.live)
	for id, c := range m.counts {
		if c > 0 {
			liveIDs = append(liveIDs, sc{int32(id), c})
		}
	}
	sort.Slice(liveIDs, func(i, j int) bool { return liveIDs[i].c > liveIDs[j].c })
	remap := make([]int32, len(m.states)) // old id → new id, -1 if dead
	for i := range remap {
		remap[i] = -1
	}
	states := make([]S, 0, len(liveIDs))
	counts := make([]int64, 0, len(liveIDs))
	pos := make(map[S]int32, 2*len(liveIDs))
	for _, e := range liveIDs {
		nid := int32(len(states))
		remap[e.id] = nid
		pos[m.states[e.id]] = nid
		states = append(states, m.states[e.id])
		counts = append(counts, e.c)
	}
	m.states, m.counts, m.pos = states, counts, pos
	if m.tbl != nil {
		m.tbl.rebuild(m.states)
	}

	// Ids were remapped: size the cache to the live count, advance its
	// generation so stale entries can never match, then carry the
	// still-live hot transitions over under their new ids (re-deriving
	// them would cost a rule call per hot pair after every compaction).
	old, oldGen := m.cache, m.cacheGen
	m.resizeCache(m.cacheLogWanted())
	m.invalidateCache()
	if m.cacheGen == 1 {
		return // wrapped: table cleared, nothing to carry
	}
	m.carryCache(old, oldGen, remap)
}

// snapshot captures the core's full state: the header, the interning
// tables verbatim (dead entries included) and the fallback mode. In the
// agent-array fallback the agents are the configuration and the stale
// counts vector is omitted. The engine adds its own fields.
func (m *multiset[S]) snapshot(backend Backend) (*Snapshot[S], error) {
	rng, err := m.pcg.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("pop: marshaling rng state: %w", err)
	}
	snap := &Snapshot[S]{
		Version:      SnapshotVersion,
		Backend:      backend.String(),
		N:            m.n,
		Interactions: m.interacts,
		TimeBase:     m.timeBase,
		SegStart:     m.segStart,
		RNG:          rng,
		States:       append([]S(nil), m.states...),
		Distinct:     m.distinct,
		QMax:         m.qMax,
	}
	if m.seqMode {
		snap.SeqMode = true
		snap.SeqRecheck = m.seqRecheck
		snap.Agents = append([]S(nil), m.agents...)
	} else {
		snap.Counts = append([]int64(nil), m.counts...)
	}
	return snap, nil
}

// restoreMultiset rebuilds a multiset core from a validated snapshot,
// with the transition cache cold (generation 1, empty, sized for the
// restored live count) by design — see the file comment. The interning
// tables load verbatim and in id order.
func restoreMultiset[S comparable](snap *Snapshot[S], rule Rule[S], o options) (multiset[S], error) {
	pcg, err := restorePCG(snap.RNG)
	if err != nil {
		return multiset[S]{}, err
	}
	m := newMultiset(pcg, rule, attachTable[S](o))
	m.n = snap.N
	m.interacts = snap.Interactions
	m.timeBase = snap.TimeBase
	m.segStart = snap.SegStart
	m.distinct = snap.Distinct
	m.qMax = snap.QMax
	m.states = append([]S(nil), snap.States...)
	m.pos = make(map[S]int32, 2*len(m.states))
	for id, st := range m.states {
		m.pos[st] = int32(id)
	}
	m.counts = make([]int64, len(m.states))
	if snap.SeqMode {
		// The fallback's counts vector is stale by invariant (nothing
		// reads it before recountFromAgents) and was omitted; the agent
		// array is the configuration.
		m.seqMode = true
		m.seqRecheck = snap.SeqRecheck
		m.agents = append([]S(nil), snap.Agents...)
	} else {
		copy(m.counts, snap.Counts)
	}
	for _, c := range m.counts {
		m.total += c
		if c > 0 {
			m.live++
		}
	}
	if m.tbl != nil {
		m.tbl.rebuild(m.states)
	}
	m.resizeCache(m.cacheLogWanted())
	return m, nil
}
