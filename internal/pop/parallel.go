// Node-path seeding for the multiset core's composition draw
// (removeSample), and the run-length table both batched engines share.
//
// # Node-path seeding
//
// A churn removal draws its composition by recursive bisection
// (mvhSplitComp): a draw of m items from a class range splits into
// left/right halves with one univariate hypergeometric per node (the left
// half's share is Hyp(total, leftTotal, m)), and the two subtrees are
// then conditionally independent. Every node derives its own PCG stream
// from a TrialSeed-style SplitMix64 hash of (draw seed, node path) — the
// path being the node's heap index (root 1, children 2p and 2p+1) — so
// the draw is a pure function of one seed word and the counts. The
// pair-matrix and slot batches run their serial chains under one such
// stream each: the root node stream of the batch's seed word (leafRand).
package pop

import (
	"math/rand/v2"
	"sort"
)

// deriveSeed maps a batch's seed word into the seed domain of one of its
// draws; leafRand uses domain 1.
func deriveSeed(seed, domain uint64) uint64 {
	return splitmix64(seed ^ domain*0x9e3779b97f4a7c15)
}

// nodeStream carries the node-path-seeded randomness: at(seed, path)
// reseeds it to the PCG stream of the SplitMix64 avalanche of (draw seed,
// node path). Two distinct paths yield uncorrelated streams. A node
// consumes its stream before it recurses, so one nodeStream serves every
// node of a draw.
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

// mvhLeafClasses: composition-splitter nodes covering at most this many
// classes draw their chain sequentially with the node's stream instead of
// splitting further. It decides where node streams are consumed, so it
// must be held fixed across runs being compared for byte-identity; it is
// a var so the tests can shrink it and exercise deep recursion at
// test-scale populations.
var mvhLeafClasses = 16

// chainTail finishes a composition chain the way removeCountsChain does:
// once every remaining class expects only a few items, the remaining m
// draws fall back to one weighted descent each over the class suffix
// src[i0:end] (total remaining weight rem), costing O(suffix + m·log
// suffix) instead of one hypergeometric per class. add is invoked once
// per drawn item with the absolute class index. The descents run on tree,
// which is reset from the suffix; src itself is not mutated by the tail.
func chainTail(r *rand.Rand, tree *fenwick, src []int64, i0, end int, rem, m int64, add func(i int, k int64)) {
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
// half's share, subtrees recurse under node-path-derived streams, and
// ranges of at most mvhLeafClasses classes run the plain chain. cum is
// the exclusive prefix-sum array of counts (cum[i] = Σ counts[:i]);
// dst[lo:hi] must be zeroed. The result is distributed exactly as the
// sequential chain — multivariate hypergeometric draws factorize over any
// class partition — and is a pure function of (seed, counts). s supplies
// the node streams and tree the chains' Fenwick descents.
func mvhSplitComp(s *nodeStream, tree *fenwick, seed, path uint64, counts, cum []int64, lo, hi int, total, m int64, dst []int64) {
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
			chainTail(s.at(seed, path), tree, counts, lo, hi, total, m,
				func(i int, k int64) { dst[i] += k })
			return
		case hi-lo <= mvhLeafClasses:
			removeCountsChain(s.at(seed, path), tree, counts, lo, hi, total, m,
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
		// Tail-recurse into the larger half, recurse into the smaller.
		if kL >= kR {
			mvhSplitComp(s, tree, seed, rPath, counts, cum, mid, hi, total-leftTot, kR, dst)
			hi, total, m, path = mid, leftTot, kL, lPath
		} else {
			mvhSplitComp(s, tree, seed, lPath, counts, cum, lo, mid, leftTot, kL, dst)
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
