// Deterministic intra-trial parallelism: divide-and-conquer batch
// sampling for the dense engine's pair-matrix batches and the multiset
// core's composition draw (removeSample).
//
// # Why a splitter
//
// Independent trials run in parallel on their own (RunTrials in tests,
// the sweep package's worker pool in sweeps), but a single n = 10⁸–10⁹
// trial still advances on one core. The dense engine's hot work — drawing
// a multivariate hypergeometric composition, distributing a sender block
// over receiver rows — factorizes recursively: a draw of m items from a
// class range splits into left/right halves with one univariate
// hypergeometric per node (the left half's share is Hyp(total, leftTotal,
// m)), after which the two subtrees are conditionally independent and can
// run on different cores.
//
// # Node-path seeding
//
// Parallel determinism comes from *where randomness lives*, not from
// execution order: every tree node derives its own PCG stream from a
// TrialSeed-style SplitMix64 hash of (draw seed, node path) — the path
// being the node's heap index (root 1, children 2p and 2p+1) — never
// from worker identity or scheduling. A batch draws one word from the
// engine's main stream as the draw seed; everything below is a pure
// function of that word, so every -par value produces the byte-identical
// trajectory and the number of workers (or whether subtrees run inline
// or on goroutines) cannot influence a single sample.
//
// # Root leaf
//
// A pair-matrix batch of at most splitLeafMass receivers is the tree's
// root leaf: it runs the engine's serial chains under the root node
// stream (leafRand) without node splits, composition vectors or a
// fork-join group. Short batches are the common case below n ≈ 10⁷, so
// this keeps one sampling path at every population size without paying
// the tree's per-node overhead there. Slot batches (batch.go) run their
// serial chains this way at every length: splitting their arrangement and
// cache-hit pass into a tree measured slower than the chains from
// n = 2·10⁷ to 10⁹, at one worker and at two.
//
// # Worker budget
//
// Fan-out is fork-join per parallel region, with at most min(par,
// GOMAXPROCS) workers per region for the engine's parallelism target
// par. Nothing divides that budget among concurrent trials: a sweep of W
// trial workers, each running an engine at par P, may schedule up to W·P
// goroutines, and the Go scheduler multiplexes them over GOMAXPROCS
// threads. Results are worker-count independent, so no budget can change
// a trajectory.
//
// A subtree is forked only when it has work to hand off: both halves
// must carry at least parMinForkWork units of estimated sampling work,
// and a region whose whole estimate is below twice that creates no
// fork-join group at all. The estimate counts what a node really draws,
// not how many items it moves: a pairing row is one chain over the live
// sender classes whatever its receiver mass, so a row range costs about
// min(rows × sender classes, receivers), and a composition costs about
// min(classes, items). A pair-matrix batch over three states therefore
// never forks, however long it is.
package pop

import (
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// resolveParallelism turns the WithParallelism option into the engine's
// worker target: p >= 1 is kept, 0 (auto) means GOMAXPROCS. The target
// only schedules work — every value takes the byte-identical trajectory —
// and is fixed at construction (and at Restore).
func resolveParallelism(par int) int {
	if par > 0 {
		return par
	}
	return runtime.GOMAXPROCS(0)
}

// parGroup bounds one parallel region's fan-out: at most workers-1 extra
// goroutines run concurrently (a finished fork returns its slot, so deep
// recursions stay load-balanced without unbounded goroutine counts). A
// nil *parGroup runs everything inline — the serial execution of the
// identical algorithm.
type parGroup struct {
	extra atomic.Int64
	wg    sync.WaitGroup
	// forks, when non-nil, counts the goroutines the region started (a
	// test hook carried over from the engine's forkEvents).
	forks *atomic.Int64
}

// newParGroup returns a group allowing the given total worker count, or
// nil when workers <= 1 (inline execution).
func newParGroup(workers int) *parGroup {
	if workers <= 1 {
		return nil
	}
	g := &parGroup{}
	g.extra.Store(int64(workers - 1))
	return g
}

// fork runs f on a new goroutine when a worker slot is free, inline
// otherwise. Callers must wait() before reading anything f writes.
func (g *parGroup) fork(f func()) {
	if g != nil {
		for {
			free := g.extra.Load()
			if free <= 0 {
				break
			}
			if g.extra.CompareAndSwap(free, free-1) {
				g.wg.Add(1)
				if g.forks != nil {
					g.forks.Add(1)
				}
				go func() {
					defer g.wg.Done()
					defer g.extra.Add(1)
					f()
				}()
				return
			}
		}
	}
	f()
}

// forkNode is fork for a splitter subtree: f runs with a node stream of
// its own from nodeStreamPool, since a subtree on another goroutine
// cannot share its parent's.
func (g *parGroup) forkNode(f func(s *nodeStream)) {
	g.fork(func() {
		s := nodeStreamPool.Get().(*nodeStream)
		f(s)
		nodeStreamPool.Put(s)
	})
}

// wait blocks until every forked goroutine of the region finished.
func (g *parGroup) wait() {
	if g != nil {
		g.wg.Wait()
	}
}

// deriveSeed gives each draw within a batch its own seed domain, so the
// receiver, sender and pairing trees of one batch never
// share a node stream.
func deriveSeed(seed, domain uint64) uint64 {
	return splitmix64(seed ^ domain*0x9e3779b97f4a7c15)
}

// nodeStream carries the splitter's only randomness source: at(seed,
// path) reseeds it to the PCG stream of the SplitMix64 avalanche of (draw
// seed, node path). Two distinct paths yield uncorrelated streams, and a
// node's stream is independent of which worker executes it. A node
// consumes its stream before it recurses, so one nodeStream per
// goroutine serves every node that goroutine runs: the engine's own for
// the calling goroutine, a pooled one for each forked subtree.
type nodeStream struct {
	pcg rand.PCG
	r   *rand.Rand
}

func newNodeStream() *nodeStream {
	s := new(nodeStream)
	s.r = rand.New(&s.pcg)
	return s
}

// at returns the node stream of (draw seed, node path).
func (s *nodeStream) at(seed, path uint64) *rand.Rand {
	h := splitmix64(seed ^ splitmix64(path))
	s.pcg.Seed(h, splitmix64(h))
	return s.r
}

// nodeStreamPool recycles forked subtrees' node streams.
var nodeStreamPool = sync.Pool{New: func() any { return newNodeStream() }}

// Granularity knobs of the splitter path. They are vars so the tests can
// shrink them and exercise deep recursion and real fan-out at test-scale
// populations; production never mutates them. parMinForkWork only
// schedules work — any value yields the identical trajectory — while
// mvhLeafClasses and splitLeafMass decide where node streams are consumed,
// so they must be held fixed across runs being compared for byte-identity.
var (
	// mvhLeafClasses: composition-splitter nodes covering at most this
	// many classes draw their chain sequentially with the node's stream
	// instead of splitting further.
	mvhLeafClasses = 16
	// parMinForkWork: a subtree is forked to another worker only when
	// both halves carry at least this much estimated work (see "Worker
	// budget"), in units of about one univariate draw; smaller subtrees
	// run inline. On a 2-vCPU VM (BenchmarkSplitterFork) a fork-join
	// handoff cost about 5 µs, some 20 hypergeometric draws; forking two
	// halves of 128 draws gained nothing and two of 512 about 30%, so at
	// 2⁹ the handoff is a few percent of the half it moves.
	parMinForkWork int64 = 1 << 9
	// splitLeafMass: the dense row splitter stops bisecting once a node's
	// receiver mass is at most this and runs the sequential multi-row
	// chain under the node's stream, and a pair-matrix batch of at most
	// this many receivers is the root leaf. Bisection redistributes
	// the same items at every level (O(R·depth) descents), so leaves must
	// carry enough mass that the tree stays shallow.
	splitLeafMass int64 = 1 << 11
)

// fenwickPool recycles the node-local Fenwick trees behind chainTail:
// splitter nodes run concurrently, so they cannot share the engine's
// scratch tree the way the root leaf's chains do.
var fenwickPool = sync.Pool{New: func() any { return new(fenwick) }}

// int64Pool recycles the splitter nodes' per-node count vectors — sender
// shares, leaf-local post multisets and miss lists. Nodes run
// concurrently, so they cannot share an engine-owned scratch slice the
// way the root leaf's chains do, and allocating one per node made the
// allocator a measurable per-batch cost of the dense pairing path.
// getInts returns a zeroed length-n slice along with its pool pointer;
// the pointer must go back via int64Pool.Put exactly once, after the
// slice's last use — the splitter nodes hand ownership down to whichever
// subtree consumes the buffer.
var int64Pool = sync.Pool{New: func() any { return new([]int64) }}

func getInts(n int) (*[]int64, []int64) {
	p := int64Pool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	} else {
		s := (*p)[:n]
		clear(s)
		*p = s
	}
	return p, *p
}

// chainTail finishes a composition chain the way removeCountsChain does:
// once every remaining class expects only a few items, the remaining m
// draws fall back to one weighted descent each over the class suffix
// src[i0:end] (total remaining weight rem), costing O(suffix + m·log
// suffix) instead of one hypergeometric per class. add is invoked once
// per drawn item with the absolute class index. The descents run on tree,
// or on one from fenwickPool when tree is nil; src is not mutated by the
// tail itself, so concurrent nodes may share a read-only src.
func chainTail(r *rand.Rand, tree *fenwick, src []int64, i0, end int, rem, m int64, add func(i int, k int64)) {
	if tree == nil {
		tree = fenwickPool.Get().(*fenwick)
		defer fenwickPool.Put(tree)
	}
	tree.reset(src[i0:end])
	for ; m > 0; m-- {
		i := i0 + tree.findAndDec(r.Int64N(rem))
		rem--
		add(i, 1)
	}
}

// mvhSplitComp draws dst[lo:hi] = the per-class composition of a uniform
// without-replacement sample of size m from counts[lo:hi] (whose total is
// total), recursively: one hypergeometric per node decides the left class
// half's share, subtrees recurse independently under node-path-derived
// streams, and ranges of at most mvhLeafClasses classes run the plain
// chain. cum is the exclusive prefix-sum array of counts (cum[i] =
// Σ counts[:i]), shared read-only across workers; dst[lo:hi] must be
// zeroed. The result is distributed exactly as the sequential chain —
// multivariate hypergeometric draws factorize over any class partition —
// and is a pure function of (seed, counts), independent of worker count.
// s is the calling goroutine's node stream.
func mvhSplitComp(g *parGroup, s *nodeStream, seed, path uint64, counts, cum []int64, lo, hi int, total, m int64, dst []int64) {
	for {
		switch {
		case m == 0:
			return
		case m == total:
			// Forced: every remaining member of the range is sampled.
			for i := lo; i < hi; i++ {
				dst[i] = counts[i]
			}
			return
		case int64(hi-lo) > int64(mvhLeafClasses) && m < 2*int64(hi-lo):
			// Light node: fewer items than half the classes — per-item
			// descents beat both bisecting and a per-class chain.
			chainTail(s.at(seed, path), nil, counts, lo, hi, total, m,
				func(i int, k int64) { dst[i] += k })
			return
		case hi-lo <= mvhLeafClasses:
			removeCountsChain(s.at(seed, path), nil, counts, lo, hi, total, m,
				func(i int, k int64) { dst[i] += k })
			return
		}
		mid := (lo + hi) / 2
		leftTot := cum[mid] - cum[lo]
		kL := int64(0)
		if leftTot > 0 {
			kL = hypergeometric(s.at(seed, path), total, leftTot, m)
		}
		kR := m - kL
		lPath, rPath := 2*path, 2*path+1
		if g != nil && min(int64(mid-lo), kL, int64(hi-mid), kR) >= parMinForkWork {
			rTot, rHi := total-leftTot, hi
			g.forkNode(func(s *nodeStream) {
				mvhSplitComp(g, s, seed, rPath, counts, cum, mid, rHi, rTot, kR, dst)
			})
			hi, total, m, path = mid, leftTot, kL, lPath
			continue
		}
		// Tail-recurse into the larger half, recurse into the smaller.
		if kL >= kR {
			mvhSplitComp(g, s, seed, rPath, counts, cum, mid, hi, total-leftTot, kR, dst)
			hi, total, m, path = mid, leftTot, kL, lPath
		} else {
			mvhSplitComp(g, s, seed, lPath, counts, cum, lo, mid, leftTot, kL, dst)
			lo, total, m, path = mid, total-leftTot, kR, rPath
		}
	}
}

// runStride is the number of run-length loop steps between two survival
// checkpoints.
const runStride = 64

// runTableMaxN bounds the populations the checkpoint search serves. For
// n ≤ runTableMaxN every loop step from ℓ = 1 on scales a normal surv by
// (n−2ℓ)(n−2ℓ−1)/(n(n−1)) < 1 − 3/n, and the five roundings involved (two
// in invNN, three in the step) add a relative error under
// 6·2⁻⁵³ < 2⁻⁵⁰ ≤ 1/n. So surv strictly decreases until it is subnormal,
// then stays below 2⁻¹⁰²⁰, far under any nonzero u that Float64 returns
// (≥ 2⁻⁵³), and zero is absorbing: the checkpoints above u form a prefix
// that ends in the block holding the loop's first crossing. Above the bound n and n−2 may round to one
// float64, so larger populations start the loop at checkpoint 0.
const runTableMaxN = 1 << 50

// runLengths inverse-transform samples the collision-free run length ℓ
// shared by both batched engines: after t collision-free interactions the
// next is collision-free with probability (n−2t)(n−2t−1)/(n(n−1)), so ℓ
// is the first t whose survival product S(t+1) falls to the uniform u. A
// cap just ends the batch early with no collision interaction, which
// composes exactly.
//
// Walking the product from t = 0 costs O(ℓ) dependent multiplies per
// batch, so ck memoizes it: ck[j] is the loop's surv after j·runStride
// steps, computed with the loop's own expression. A draw binary-searches
// ck for the last checkpoint above u and walks at most one stride from
// there, returning exactly what the walk from t = 0 returns. ck is a pure
// function of n, extended lazily and reset when n changes (churn).
type runLengths struct {
	n     int64
	invNN float64
	ck    []float64
}

// draw samples ℓ for a population of n ≥ 2 with a cap maxPairs ≥ 0. It
// consumes exactly one Float64 from rng.
func (r *runLengths) draw(rng *rand.Rand, n, maxPairs int64) (ell int64, collided bool) {
	return r.run(rng.Float64(), n, maxPairs)
}

// run is draw with the uniform u supplied.
func (r *runLengths) run(u float64, n, maxPairs int64) (ell int64, collided bool) {
	if n != r.n {
		r.n, r.invNN, r.ck = n, 1/(float64(n)*float64(n-1)), append(r.ck[:0], 1)
	}
	for last := len(r.ck) - 1; n <= runTableMaxN && r.ck[last] > u && int64(last)*runStride < maxPairs; last++ {
		surv := r.ck[last]
		for t := int64(last) * runStride; t < int64(last+1)*runStride; t++ {
			a := float64(n - 2*t)
			surv = surv * a * (a - 1) * r.invNN
		}
		r.ck = append(r.ck, surv)
	}
	j := sort.Search(len(r.ck), func(j int) bool { return r.ck[j] <= u }) - 1
	ell = int64(j) * runStride
	if ell >= maxPairs {
		return maxPairs, false
	}
	surv := r.ck[j]
	for ell < maxPairs {
		a := float64(n - 2*ell)
		next := surv * a * (a - 1) * r.invNN
		if next <= u {
			return ell, true
		}
		surv = next
		ell++
	}
	return ell, false
}

// prefixSums fills dst (reusing its backing array) with the exclusive
// prefix sums of counts: dst[i] = Σ counts[:i], len(dst) = len(counts)+1.
func prefixSums(dst, counts []int64) []int64 {
	if cap(dst) < len(counts)+1 {
		dst = make([]int64, len(counts)+1)
	}
	dst = dst[:len(counts)+1]
	dst[0] = 0
	for i, c := range counts {
		dst[i+1] = dst[i] + c
	}
	return dst
}
