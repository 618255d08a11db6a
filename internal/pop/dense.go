// DenseSim: the count-vector simulation backend.
//
// # Representation
//
// Like BatchSim, DenseSim stores the configuration as interned state
// counts — but it never materializes agents at any point: not at
// construction (NewDenseFromCounts accepts the multiset directly), not
// inside a batch (participants are advanced as a matrix of state-pair
// counts rather than a slot array), and not under live-state pressure
// short of the slot batches' own fallback threshold (delegation, below,
// keeps the counts vector). Its memory footprint is O(q) for q live
// states, which is what makes n = 10⁹–10¹⁰ populations feasible for this
// paper's dense protocols: after the initial epidemic the number of
// distinct states is polylog(n), so the whole configuration is a few
// kilobytes regardless of n.
//
// # Pair-matrix batches
//
// Batches reuse BatchSim's collision-free framing (arXiv:2005.03584): the
// run length ℓ until the scheduler first reuses an agent depends only on
// n, and the 2ℓ participants are a uniform without-replacement sample of
// the population. DenseSim exploits the exchangeability one step further,
// in the spirit of the count-vector dynamics of Berenbrink, Kaaser &
// Radzik (arXiv:1905.11962): instead of materializing 2ℓ slots and
// shuffling, it draws the ℓ receiver states as a multivariate
// hypergeometric sample of the counts vector, the ℓ sender states as a
// second such sample from the remainder, and then the uniformly random
// receiver↔sender matching as one multivariate hypergeometric row per
// receiver state over the sender multiset. The result is the matrix
// C[a][b] of ordered state-pair interaction counts for the batch, drawn
// from exactly the distribution the agent-level scheduler induces — a
// deterministic transition (a,b) → (a',b') is then applied once per pair
// with multiplicity C[a][b], and only transitions that consume randomness
// degrade to per-pair rule draws. The collision interaction that ends a
// batch is resolved exactly as in BatchSim, with the slot array replaced
// by the participants' post-state multiset. Per-batch work is
// O(log ℓ + 64) for the run length (a search of the core's survival
// checkpoints plus at most one 64-step stride), O(q·H) for the two
// participant samples and O(nonzero matrix cells) ≤ O(q²) for the
// pairing — independent of ℓ up to the logarithm for concentrated
// configurations — and the trajectory is distributed identically to the
// sequential engine's, up to float64 rounding in the inverse-transform
// samplers.
//
// Every batch, whatever its length, runs these chains serially under one
// node stream derived from a per-batch seed word (leafRand), so a single
// trial advances on one core; independent trials run in parallel in the
// sweep layer's worker pool. (Forking the pairing rows across cores
// measured slower than the serial chains at n = 10⁸–10⁹ for q = 3 and
// q ≈ 90; see DESIGN.md §1.1.)
//
// # Delegation
//
// The pair matrix stops paying once q² work rivals the ~√n batch length —
// precisely the regime per-slot sampling is built for. Above the
// delegation cutoff (default ~√n/6, see WithDenseThreshold) DenseSim
// delegates in place: its multiset core, which is BatchSim's, runs slot
// batches (and, above WithBatchThreshold, their agent-array fallback) on
// the same counts, rng streams, interning tables and transition cache.
// A recheck every few parallel time units switches back to pair-matrix
// batches once the configuration re-concentrates below half the cutoff.
// Nothing is copied or reseeded at either switch. The same Rule purity
// contract as BatchSim's applies.
package pop

import (
	"math"
	"math/rand/v2"
)

const (
	// denseMaxPairs caps a single pair-matrix batch's length. Dense
	// batches have no per-slot scratch, so the cap only bounds the
	// run-length table, at most denseMaxPairs/64 checkpoints; it binds
	// well above the natural Θ(√n) collision point for every feasible n.
	denseMaxPairs = 1 << 20
	// denseRecheckFactor: while delegated, the live-state count is
	// rechecked every denseRecheckFactor·n interactions to decide on
	// re-entering pair-matrix batches.
	denseRecheckFactor = 2
	// denseHeavyCell: a pairing-row cell expecting at least this many
	// partners is drawn with its own hypergeometric; lighter cells are
	// cheaper as individual Fenwick descents (a light hypergeometric draw
	// costs about three tree descents).
	denseHeavyCell = 3
)

// defaultDenseThreshold sizes the live-state delegation cutoff for a
// population of n agents: dense batches cost O(q) chain draws against the
// slot backend's Θ(ℓ) per-slot work, with ℓ ≈ 0.63√n the expected
// collision-free run length, so the crossover scales with √n. The
// constant is conservative (chain draws are several times the cost of a
// slot write) and the result is clamped to BatchSim's own threshold
// regime.
func defaultDenseThreshold(n int) int {
	q := int(0.627 * math.Sqrt(float64(n)) / 4)
	return min(max(q, 64), 2048)
}

// DenseSim is the count-vector engine. See the file comment for the
// algorithm. It is not safe for concurrent use; run independent trials on
// independent values.
type DenseSim[S comparable] struct {
	multiset[S]

	// Delegation: the live-state cutoff above which the engine runs slot
	// batches (rescaled with √n on churn unless WithDenseThreshold fixed
	// it to cutoffOverride), the mode flag, and the interactions until
	// the next re-entry check.
	cutoff         int
	cutoffOverride int
	delegated      bool
	recheck        int64

	// Batch scratch, indexed by state id: the receiver counts.
	recv []int64

	forceNoDelegate bool // test hook (false in production)
}

// newDenseSim builds a DenseSim of n agents with everything but its
// initial configuration, shared by the constructors below.
func newDenseSim[S comparable](n int, rule Rule[S], opts []Option) *DenseSim[S] {
	var o options
	Combine(opts...)(&o)
	d := &DenseSim[S]{
		multiset:       newShell("dense", n, rule, o),
		cutoffOverride: o.denseThreshold,
	}
	d.rescaleCutoff()
	return d
}

// NewDense constructs a count-vector simulator; the arguments mirror New.
// It panics if WithInteractionCounts was requested (the multiset
// representation has no agent identities).
func NewDense[S comparable](n int, initial func(i int, r *rand.Rand) S, rule Rule[S], opts ...Option) *DenseSim[S] {
	validatePopSize(int64(n))
	d := newDenseSim(n, rule, opts)
	d.fillFunc(initial)
	return d
}

// NewDenseFromCounts constructs a count-vector simulator directly from a
// configuration multiset given as parallel slices: states[i] is held by
// counts[i] agents (zero-count entries are skipped, duplicate states
// accumulate). No agent-sized allocation of any kind occurs, so this is
// the constructor of choice for populations far beyond memory — a
// three-state configuration of 10¹⁰ agents costs the same as one of 10³.
func NewDenseFromCounts[S comparable](states []S, counts []int64, rule Rule[S], opts ...Option) *DenseSim[S] {
	d := newDenseSim(int(validateCounts(states, counts)), rule, opts)
	d.fillCounts(states, counts)
	return d
}

// rescaleCutoff re-derives the √n-scaled delegation cutoff after a
// population-size change (a WithDenseThreshold override stays fixed).
func (d *DenseSim[S]) rescaleCutoff() {
	if d.cutoffOverride > 0 {
		d.cutoff = d.cutoffOverride
		return
	}
	d.cutoff = defaultDenseThreshold(d.n)
}

// AddAgents adds k agents in state st (a join event) and rescales the
// delegation cutoff.
func (d *DenseSim[S]) AddAgents(st S, k int) {
	d.multiset.AddAgents(st, k)
	d.rescaleCutoff()
}

// RemoveAgents removes k agents chosen uniformly at random without
// replacement (a leave event), refusing to shrink the population below 2,
// and rescales the delegation cutoff.
func (d *DenseSim[S]) RemoveAgents(k int) {
	d.multiset.RemoveAgents(k)
	d.rescaleCutoff()
}

// Delegated reports whether the engine is currently running slot batches
// (see the file comment).
func (d *DenseSim[S]) Delegated() bool { return d.delegated }

// RunTime executes t units of parallel time (t·n interactions, rounded
// down).
func (d *DenseSim[S]) RunTime(t float64) {
	d.Run(int64(t * float64(d.n)))
}

// RunUntil has the semantics documented on Engine.RunUntil, shared with
// the other engines.
func (d *DenseSim[S]) RunUntil(pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64) {
	return runUntil[S](d, pred, checkEvery, maxTime)
}

// Run executes k interactions.
func (d *DenseSim[S]) Run(k int64) {
	for k > 0 {
		if d.delegated {
			run := min(k, d.recheck)
			d.runSlots(run)
			d.st.DelegatedInteractions += run
			d.recheck -= run
			k -= run
			if d.recheck <= 0 {
				if d.LiveStates() <= d.cutoff/2 {
					d.reenter()
				} else {
					d.recheck = int64(denseRecheckFactor) * int64(d.n)
				}
			}
			continue
		}
		if d.live > d.cutoff {
			d.delegate()
			continue
		}
		k -= d.advance(k, d.runBatch)
	}
}

// delegate switches to the core's slot batches in place.
func (d *DenseSim[S]) delegate() {
	if d.forceNoDelegate {
		panic("pop: DenseSim delegated to slot batches with forceNoDelegate set")
	}
	d.delegated = true
	d.recheck = int64(denseRecheckFactor) * int64(d.n)
	d.st.Delegations++
}

// reenter leaves the agent-array fallback if it is active, compacts, and
// resumes pair-matrix batching.
func (d *DenseSim[S]) reenter() {
	if d.seqMode {
		d.recountFromAgents()
		d.seqMode = false
	}
	d.delegated = false
	d.compact()
	d.st.DenseReentries++
}

// runBatch simulates one pair-matrix batch (plus its collision
// interaction, if one was sampled) of at most kmax interactions, and
// returns how many interactions it executed. Every batch draws one seed
// word, and all of its sampling runs serially under that word's root node
// stream (leafRand), whatever ℓ is: the receivers are a multivariate
// hypergeometric sample of the (debited) counts vector, and senders are
// then drawn row by row from the remaining population inside
// pairAndApply — jointly equivalent, by exchangeability, to drawing 2ℓ
// agents without replacement and pairing them at random.
func (d *DenseSim[S]) runBatch(kmax int64) int64 {
	ell, collided := d.batchLength(kmax, denseMaxPairs)
	if ell == 0 {
		d.step()
		return 1
	}
	d.post = resizeZero(d.post, len(d.counts))
	d.recv = resizeZero(d.recv, len(d.counts))
	r := d.leafRand(d.rng.Uint64())
	d.sampleParticipants(r, d.recv, ell)
	d.pairAndApply(r, ell)
	return d.finishPost(ell, collided)
}

// sampleParticipants draws a uniform without-replacement sample of m
// agents as per-state counts into dst (zeroed, len ≥ len(counts)),
// debiting the configuration: the removeCountsChain draw from r, recorded
// per state.
func (d *DenseSim[S]) sampleParticipants(r *rand.Rand, dst []int64, m int64) {
	removeCountsChain(r, &d.tree, d.counts, 0, len(d.counts), d.total, m, func(id int, k int64) {
		d.addCount(int32(id), -k)
		dst[id] += k
	})
}

// pairAndApply realizes the uniformly random receiver↔sender matching as
// the matrix of ordered state-pair counts and applies each cell with its
// multiplicity. Row a (the partners of the recv[a] receivers in state a)
// is a multivariate hypergeometric draw from the remaining population —
// drawing each row's senders directly from the undrawn pool is jointly
// identical to pre-drawing an ℓ-sender block and matching it uniformly,
// and skips that block's own sampling chain. Each row is one pairRow
// chain over the counts vector, the tree staying in sync with its debits.
// For concentrated configurations rows exhaust within the first few
// sender states and the matrix work stays far below q². All draws come
// from r.
func (d *DenseSim[S]) pairAndApply(r *rand.Rand, ell int64) {
	d.tree.reset(d.counts)
	for a := 0; a < len(d.recv) && ell > 0; a++ {
		ra := d.recv[a]
		if ra == 0 {
			continue
		}
		ell -= ra
		pairRow(r, &d.tree, &d.counts, d.total, ra, func(b int32, k int64) {
			d.addCount(b, -k)
			d.st.PairCells++
			d.applyCell(int32(a), b, k)
		})
	}
}

// pairRow draws one pairing row: the partners of ra receivers from a pool
// of total agents, *pool[b] of them in state b, with tree holding the
// pool's weights. Heavy cells get one hypergeometric draw each; once
// cells turn light (pools are compaction-ordered descending, so lightness
// is monotone along the row) the remaining partners cost one Fenwick
// descent each restricted to the pool's unwalked suffix. take(b, k) must
// debit k agents of state b from the pool; pairRow debits tree. The pool
// is read through a pointer because take may grow it mid-row — rule
// outputs intern new states into the counts vector — and the light test
// reads its current length.
func pairRow(r *rand.Rand, tree *fenwick, pool *[]int64, total, ra int64, take func(b int32, k int64)) {
	remPop, taken := total, int64(0)
	for bs := 0; bs < len(*pool) && ra > 0; bs++ {
		c := (*pool)[bs]
		if c == 0 {
			continue
		}
		if lightDraw(c, ra, denseHeavyCell, remPop) && ra < 2*int64(len(*pool)-bs) {
			break
		}
		var k int64
		if remPop == ra {
			k = c // forced: every remaining agent partners this state
		} else {
			k = hypergeometric(r, remPop, c, ra)
		}
		remPop -= c
		ra -= k
		if k > 0 {
			tree.add(bs, -k)
			taken += k
			take(int32(bs), k)
		}
	}
	// The chain above has already fixed this row's allocation to the
	// states it walked, so the rest of the row is conditioned on the
	// remaining suffix: offsetting the descent past the walked prefix's
	// remaining weight (total − taken − remPop, constant while the tail
	// draws) restricts the full tree to exactly that suffix.
	prefix := total - taken - remPop
	for ; ra > 0; ra-- {
		b := int32(tree.findAndDec(prefix + r.Int64N(remPop)))
		remPop--
		take(b, 1)
	}
}

// applyCell advances mult ordered (receiver, sender) interactions of the
// state pair (ida, idb), accumulating outputs into the post multiset. A
// deterministic transition (see resolve) is applied in one shot;
// otherwise the rule runs once per interaction until a call consumes no
// randomness — the transition is then a pure function of the pair (the
// Rule contract), so the remaining multiplicity shares its outputs, and
// only genuinely randomized transitions pay one rule call per interaction.
func (d *DenseSim[S]) applyCell(ida, idb int32, mult int64) {
	oa, ob, det := d.resolve(ida, idb, mult)
	for !det && mult > 1 {
		d.addPost(oa, 1)
		d.addPost(ob, 1)
		mult--
		oa, ob, det = d.callRule(ida, idb)
	}
	d.addPost(oa, mult)
	d.addPost(ob, mult)
}
