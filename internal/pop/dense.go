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
// Nothing is copied or reseeded at either switch, and the worker target
// stays the dense engine's. The same Rule purity contract as BatchSim's
// applies.
package pop

import (
	"math"
	"math/rand/v2"
	"sync"
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
// independent values (e.g. via RunTrials).
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

	// Batch scratch, indexed by state id: the receiver counts, and above
	// the root leaf the pre-drawn sender composition and the receiver-row
	// index/prefix arrays.
	recv   []int64
	send   []int64
	rows   []int32
	rowCum []int64

	// The splitter tree's deferred (uncached) cells: misses holds each
	// receiver row's cells in sender order, missAt[ri] locates row ri's
	// run, and leafMu guards both, the post multiset and the counters
	// while leaves run concurrently.
	misses []denseMiss
	missAt []missSpan
	leafMu sync.Mutex

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
// word. A batch of at most splitLeafMass receivers is the splitter's root
// leaf: the receivers are a multivariate hypergeometric sample of the
// (debited) counts vector, and senders are then drawn row by row from the
// remaining population inside pairAndApply — jointly equivalent, by
// exchangeability, to drawing 2ℓ agents without replacement and pairing
// them at random — all from leafRand. A larger batch runs the splitter
// tree: it pre-draws the sender block as a second composition sample
// (jointly identical by the same exchangeability) and distributes that
// multiset over the receiver rows (pairRowsSplit), every draw derived
// from (seed, node path) so the trajectory is byte-identical for any
// worker count.
func (d *DenseSim[S]) runBatch(kmax int64) int64 {
	ell, collided := d.batchLength(kmax, denseMaxPairs)
	if ell == 0 {
		d.step()
		return 1
	}
	seed := d.rng.Uint64()
	d.post = resizeZero(d.post, len(d.counts))
	if ell <= splitLeafMass {
		d.recv = resizeZero(d.recv, len(d.counts))
		r := d.leafRand(seed)
		d.sampleParticipants(r, d.recv, ell)
		d.pairAndApply(r, ell)
		return d.finishPost(ell, collided)
	}

	// Receiver composition, then sender composition from the remainder.
	d.recv = d.removeSample(deriveSeed(seed, 1), ell, d.recv)
	d.send = d.removeSample(deriveSeed(seed, 2), ell, d.send)

	// Pairing: distribute the sender multiset over the receiver rows.
	d.pairRowsSplit(deriveSeed(seed, 3), ell)
	return d.finishPost(ell, collided)
}

// denseMiss is one deferred pair-matrix cell of a receiver row: the
// sender state id and the cell's multiplicity.
type denseMiss struct {
	b    int32
	mult int64
}

// missSpan locates one receiver row's deferred cells in DenseSim.misses.
type missSpan struct{ lo, hi int }

// pairRowsSplit realizes the receiver↔sender matching as recursive
// hypergeometric splits: a node holding a contiguous row range and its
// sender multiset S splits the range in half, draws the left half's share
// of S (one chain with the node's stream), and recurses — forked to
// another worker when both halves carry enough work (see "Worker budget"
// in parallel.go; a row range costs about min(rows × sender classes,
// receivers)). Once a node's receiver mass drops to splitLeafMass it
// stops splitting and runs the sequential multi-row chain (heavy cells by
// hypergeometric, light tails by suffix-restricted descents) under its
// own stream, so the splitter's total per-item work stays within one
// shallow tree of the serial chain's. Cached cells accumulate into the
// post multiset (merged once per leaf); uncached cells are deferred,
// each row's already coalesced and in sender order (pairRowsLeaf), so
// walking the rows in order applies them in canonical (row, sender)
// order with no sort: applyCell runs exactly once per distinct cell, and
// the rule stream's consumption — and even the hit/call statistics — do
// not depend on which worker ran which leaf.
func (d *DenseSim[S]) pairRowsSplit(seed uint64, ell int64) {
	d.rows = d.rows[:0]
	d.rowCum = append(d.rowCum[:0], 0)
	sum := int64(0)
	for id, k := range d.recv {
		if k > 0 {
			d.rows = append(d.rows, int32(id))
			sum += k
			d.rowCum = append(d.rowCum, sum)
		}
	}
	if sum != ell {
		panic("pop: DenseSim receiver rows lost mass")
	}
	classes := int64(0)
	for _, c := range d.send {
		if c > 0 {
			classes++
		}
	}
	d.misses = d.misses[:0]
	d.missAt = resizeZero(d.missAt, len(d.rows))
	g := d.group(min(int64(len(d.rows))*classes, ell))
	d.pairRowsNode(g, d.leaf, seed, 1, 0, len(d.rows), d.send, ell, classes, nil)
	g.wait()
	for ri, sp := range d.missAt {
		for _, ms := range d.misses[sp.lo:sp.hi] {
			d.st.PairCells++
			d.applyCell(d.rows[ri], ms.b, ms.mult)
		}
	}
}

// pairRowsNode is one splitter node of pairRowsSplit, covering rows
// [rlo, rhi) whose receivers total R and whose sender multiset is snd
// (owned by the node; Σ snd = R), with at most classes live sender
// classes. owned, when non-nil, is snd's int64Pool pointer: this node's
// subtree is the buffer's last reader and returns it to the pool on the
// way out (the root's snd is the engine-owned d.send, which passes nil).
// s is the calling goroutine's node stream.
func (d *DenseSim[S]) pairRowsNode(g *parGroup, s *nodeStream, seed, path uint64, rlo, rhi int, snd []int64, R, classes int64, owned *[]int64) {
	for {
		if R == 0 || rhi <= rlo {
			break
		}
		if rhi-rlo == 1 || R <= splitLeafMass {
			d.pairRowsLeaf(s.at(seed, path), rlo, rhi, snd, R)
			break
		}
		rmid := (rlo + rhi) / 2
		RL := d.rowCum[rmid] - d.rowCum[rlo]
		RR := R - RL
		sndLP, sndL := getInts(len(snd))
		if RL > 0 {
			removeCountsChain(s.at(seed, path), nil, snd, 0, len(snd), R, RL,
				func(b int, k int64) { sndL[b] += k; snd[b] -= k })
		}
		lPath, rPath := 2*path, 2*path+1
		if g != nil && min(int64(rmid-rlo)*classes, RL, int64(rhi-rmid)*classes, RR) >= parMinForkWork {
			sndR, rR, rHi, ownedR := snd, RR, rhi, owned
			g.forkNode(func(s *nodeStream) {
				d.pairRowsNode(g, s, seed, rPath, rmid, rHi, sndR, rR, classes, ownedR)
			})
			rhi, snd, R, path, owned = rmid, sndL, RL, lPath, sndLP
			continue
		}
		d.pairRowsNode(g, s, seed, lPath, rlo, rmid, sndL, RL, classes, sndLP)
		rlo, R, path = rmid, RR, rPath
	}
	if owned != nil {
		int64Pool.Put(owned)
	}
}

// pairRowsLeaf distributes the leaf's sender multiset snd (Σ snd = R)
// over rows [rlo, rhi) sequentially, one pairRow chain per row, as the
// root leaf's pairAndApply does over the whole population. All
// randomness comes from the leaf's node stream r. Cached cells
// accumulate into a leaf-local post vector, merged once under leafMu.
// Uncached cells accumulate per sender into a leaf-local vector — a
// row's random tail can draw one cell in several pieces — which each row
// flushes in sender order into the engine's deferred cells (flushMisses).
func (d *DenseSim[S]) pairRowsLeaf(r *rand.Rand, rlo, rhi int, snd []int64, R int64) {
	tree := fenwickPool.Get().(*fenwick)
	tree.reset(snd)
	localPostP, localPost := getInts(len(d.post))
	missP, miss := getInts(len(snd))
	var hitCells, hits, tblHits int64
	for ri := rlo; ri < rhi && R > 0; ri++ {
		a := d.rows[ri]
		bLo, bHi := len(snd), 0 // the row's uncached sender range
		pairRow(r, tree, &snd, R, d.rowCum[ri+1]-d.rowCum[ri], func(b int32, k int64) {
			snd[b] -= k
			R -= k
			if oa, ob, ok, fromTable := d.lookupRO(a, b); ok {
				hitCells++
				if fromTable {
					tblHits += k
				} else {
					hits += k
				}
				localPost[oa] += k
				localPost[ob] += k
				return
			}
			// Misses count toward PairCells when applied
			// (pairRowsSplit's serial pass).
			miss[b] += k
			bLo, bHi = min(bLo, int(b)), max(bHi, int(b)+1)
		})
		if bLo < bHi {
			d.flushMisses(ri, miss[bLo:bHi], bLo)
		}
	}
	fenwickPool.Put(tree)
	d.leafMu.Lock()
	d.st.PairCells += hitCells
	d.st.CacheHits += hits
	d.st.TableHits += tblHits
	// Element writes, not addPost: interning is deferred to the serial
	// miss pass, so d.post cannot grow here, and addPost's header
	// reassignment would race with other leaves' len(d.post) reads.
	for id, c := range localPost {
		if c > 0 {
			d.post[id] += c
		}
	}
	d.leafMu.Unlock()
	int64Pool.Put(localPostP)
	int64Pool.Put(missP)
}

// flushMisses appends row ri's uncached cells — miss[j] partners in
// sender state b0+j — to the engine's deferred cells in sender order,
// records where they went, and zeroes miss.
func (d *DenseSim[S]) flushMisses(ri int, miss []int64, b0 int) {
	d.leafMu.Lock()
	lo := len(d.misses)
	for j, k := range miss {
		if k > 0 {
			d.misses = append(d.misses, denseMiss{b: int32(b0 + j), mult: k})
			miss[j] = 0
		}
	}
	d.missAt[ri] = missSpan{lo, len(d.misses)}
	d.leafMu.Unlock()
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
// is read through a pointer because take may grow it mid-row — the root
// leaf's rule outputs intern new states into the counts vector — and the
// light test reads its current length.
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
