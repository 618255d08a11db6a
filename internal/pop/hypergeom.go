package pop

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// hypergeometric samples from the hypergeometric distribution: the number
// of "successes" among m draws without replacement from a population of N
// items of which K are successes. It is exact up to float64 rounding (the
// same caveat as any floating-point sampler).
//
// BatchSim calls it once per live state per batch to sample the
// multivariate hypergeometric allocation of batch slots to states, so the
// constant factor matters: light states (small expected draw) use an
// inverse-transform walk from zero whose only transcendental work is one
// log1p/exp pair, and heavy states use the HRUA rejection sampler
// (constant expected time at any standard deviation).
func hypergeometric(r *rand.Rand, N, K, m int64) int64 {
	switch {
	case N < 0 || K < 0 || m < 0 || K > N || m > N:
		panic("pop: invalid hypergeometric parameters")
	case m == 0 || K == 0:
		return 0
	case m == N:
		return K
	case K == N:
		return m
	}
	// Symmetries: successes among the m drawn = K − successes among the
	// N−m undrawn; and the roles of K and m are exchangeable. Use them to
	// shrink the work.
	if m > N/2 {
		return K - hypergeometric(r, N, K, N-m)
	}
	if K > N/2 {
		return m - hypergeometric(r, N, N-K, m)
	}
	if K > m {
		K, m = m, K // Hyp(N, K, m) == Hyp(N, m, K)
	}
	// After the reductions K <= m <= N/2, so the support starts at 0 and
	// p(0) = C(N−K, m)/C(N, m) = Π (N−m−i)/(N−i) over i < K is positive.
	if mean := float64(K) * float64(m) / float64(N); mean <= 16 {
		// Light state: walk up from zero. p(0) via exp/log1p; then the
		// ratio recurrence. Expected steps ≈ mean.
		// p(0) by direct product while the factor count stays below the
		// cost of the lnChoose route (6 log-gammas plus an exp).
		var p float64
		if K <= 64 {
			p = 1
			for i := int64(0); i < K; i++ {
				p *= float64(N-m-i) / float64(N-i)
			}
		} else {
			p = math.Exp(lnChoose(N-K, m) - lnChoose(N, m))
		}
		u := r.Float64()
		acc := p
		x := int64(0)
		// After the reductions the support is [0, K]; stopping at K also
		// covers the float64-rounding sliver where acc never reaches u.
		for acc <= u && x < K {
			// p(x+1)/p(x) = (K−x)(m−x) / ((x+1)(N−K−m+x+1))
			p *= float64(K-x) * float64(m-x) / (float64(x+1) * float64(N-K-m+x+1))
			x++
			acc += p
			if p == 0 {
				break
			}
		}
		return x
	}
	return hypergeometricHRUA(r, N, K, m)
}

// lightDraw reports c·k < thresh·remPop — the heavy/light split every
// composition chain uses to decide between one hypergeometric draw per
// state (heavy: the state expects at least thresh of the k remaining
// draws) and per-item Fenwick descents over the suffix (light). The
// products wrap int64 for large populations (c·k ≈ 2.5·10²³ at N = 10¹²
// with c, k ≈ N/2), which silently flipped path selection, so the
// comparison runs on 128-bit intermediates. Arguments must be
// non-negative.
func lightDraw(c, k, thresh, remPop int64) bool {
	chi, clo := bits.Mul64(uint64(c), uint64(k))
	thi, tlo := bits.Mul64(uint64(thresh), uint64(remPop))
	return chi < thi || (chi == thi && clo < tlo)
}

// multivariateHypergeometric draws the per-class composition of a uniform
// without-replacement sample of size m from a population whose class i
// has counts[i] members (Σ counts = total): dst[i] (same length as
// counts) receives the number of sampled class-i members. The draw
// factorizes into a chain of univariate hypergeometrics — class i's
// allocation is hypergeometric in the population and sample remaining
// after classes < i — which is exact for any class order. DenseSim
// advances whole interaction batches on draws of this form: once for the
// batch's receiver states, then once per receiver state over the
// remaining population to realize the uniformly random pairing as a
// matrix of ordered state-pair counts. The engines run the chain with a
// heavy/light split: removeCountsChain draws the batches' participants
// (DenseSim.sampleParticipants, the slot batches' sampleSlotsByState) and
// the composition splitter's leaf shares, and pairRow in dense.go runs it
// per pairing row.
func multivariateHypergeometric(r *rand.Rand, counts []int64, total, m int64, dst []int64) {
	if len(dst) != len(counts) {
		panic("pop: multivariate hypergeometric dst/counts length mismatch")
	}
	if m < 0 || m > total {
		panic("pop: invalid multivariate hypergeometric sample size")
	}
	remPop := total
	for i, c := range counts {
		if c == 0 || m == 0 {
			dst[i] = 0
			continue
		}
		var k int64
		if remPop == m {
			k = c // forced: every remaining member is sampled
		} else {
			k = hypergeometric(r, remPop, c, m)
		}
		remPop -= c
		m -= k
		dst[i] = k
	}
	if m != 0 {
		panic("pop: multivariate hypergeometric under-filled (Σcounts < total?)")
	}
}

// removeCountsChain draws a uniform without-replacement sample of k
// items from the classes [lo, hi) of counts, whose total is total — the
// multivariate hypergeometric chain with a heavy/light split: one
// hypergeometric draw per class while a class expects a material share of
// the sample, one Fenwick descent over the remaining suffix per item for
// the light tail (chainTail, on tree). emit receives the drawn shares in
// class order, one call per heavy class and one per tail item. It may
// debit counts: a class is read before its share is emitted, and the
// tail's tree is built before its first emit. It is the single chain
// behind the batches' participant draws and the mvhSplitComp leaves, so
// they cannot drift apart.
func removeCountsChain(r *rand.Rand, tree *fenwick, counts []int64, lo, hi int, total, k int64, emit func(i int, k int64)) {
	rem := total
	for i := lo; i < hi && k > 0; i++ {
		c := counts[i]
		if c == 0 {
			continue
		}
		if lightDraw(c, k, batchHeavyMean, rem) && k < 2*int64(hi-i) {
			chainTail(r, tree, counts, i, hi, rem, k, emit)
			return
		}
		d := c // forced: every remaining item is drawn
		if rem != k {
			d = hypergeometric(r, rem, c, k)
		}
		rem -= c
		k -= d
		if d > 0 {
			emit(i, d)
		}
	}
	if k != 0 {
		panic("pop: composition chain under-filled")
	}
}

// hypergeometricMode returns the mode anchor floor((m+1)(K+1)/(N+2)) of
// Hyp(N, K, m), clamped to the support. The int64 product (m+1)(K+1)
// wraps once N ≳ 6·10⁹ with K, m ≈ N/2 (the wrapped anchor was clamped
// to the support's low end, silently degrading the old mode walk from
// O(stddev) to O(support) — an effective hang at N = 10¹²), so the
// anchor is computed in float64: exact except when the quotient falls
// within a few hundred ULP of an integer, where it may be off by one —
// either value anchors the rejection sampler equally well (the envelope
// scaling shifts by O(1/stddev²), far below the sampler's float64
// noise floor).
func hypergeometricMode(N, K, m int64) int64 {
	mode := int64(math.Floor(float64(m+1) * float64(K+1) / float64(N+2)))
	lo := max(int64(0), m-(N-K))
	hi := min(m, K)
	return min(max(mode, lo), hi)
}

// Stadlober's ratio-of-uniforms constants: hruaD1 = 2·√(2/e) (the
// enclosing rectangle's width factor) and hruaD2 = 3 − 2·√(3/e) (its
// additive continuity correction).
const (
	hruaD1 = 1.7155277699214135
	hruaD2 = 0.8989161620588988
)

// hruaLnF is −ln of the non-constant pmf factor of Hyp(·, K, m) at x:
// ln(x!·(K−x)!·(m−x)!·(N−K−m+x)!) with nkm = N−K−m. Differences of
// hruaLnF are exact log pmf ratios (the K!, (N−K)!, m!, (N−m)!, C(N,m)
// terms cancel), which is all the acceptance test needs.
func hruaLnF(K, m, nkm, x int64) float64 {
	return lnGamma(float64(x+1)) + lnGamma(float64(K-x+1)) +
		lnGamma(float64(m-x+1)) + lnGamma(float64(nkm+x+1))
}

// hypergeometricHRUA samples Hyp(N, K, m) by Stadlober's HRUA
// ratio-of-uniforms rejection (the H2PE-family sampler NumPy uses):
// a candidate w = center + width·(v−½)/u from one uniform pair (u, v)
// is accepted against the pmf ratio p(⌊w⌋)/p(mode), with a quadratic
// squeeze deciding most candidates before the exact log test. Expected
// cost is constant — measured ~1.37 uniform pairs and ~1.35 pmf-ratio
// evaluations per draw, flat from σ = 10² to 10⁶, with ~94% of accepted
// draws resolved by the squeeze alone — which is what makes the batched
// engines' per-batch work independent of n (the old mode walk's
// O(stddev) inverse transform grew as √n).
//
// Callers must have applied hypergeometric's reductions first:
// 0 < K <= m <= N/2, so the support is [0, K] and no post-hoc symmetry
// correction is needed.
func hypergeometricHRUA(r *rand.Rand, N, K, m int64) int64 {
	p := float64(K) / float64(N)
	nkm := N - K - m
	center := float64(m)*p + 0.5
	sd := math.Sqrt(float64(N-m)*float64(m)*p*(1-p)/float64(N-1) + 0.5)
	width := hruaD1*sd + hruaD2
	mode := hypergeometricMode(N, K, m)
	lnFMode := hruaLnF(K, m, nkm, mode)
	// Right cutoff of the enclosing region: the support's end, or 16
	// stddevs past the mean — where the envelope's tail mass is below
	// the 16-digit precision of hruaD1/hruaD2.
	cut := math.Min(float64(K+1), math.Floor(center+16*sd))
	for {
		u := r.Float64()
		v := r.Float64()
		w := center + width*(v-0.5)/u
		// The negated form also rejects the u = 0 edge (w = ±Inf or NaN).
		if !(w >= 0 && w < cut) {
			continue
		}
		z := int64(w)
		t := lnFMode - hruaLnF(K, m, nkm, z)
		// Squeeze tests: u(4−u)−3 <= 2·ln u <= u(u−t)... rearranged so
		// most candidates resolve without the log.
		if u*(4-u)-3 <= t {
			return z // squeeze acceptance (implies 2·ln u <= t)
		}
		if u*(u-t) >= 1 {
			continue // squeeze rejection (implies 2·ln u > t)
		}
		if 2*math.Log(u) <= t {
			return z // exact pmf-ratio test
		}
	}
}

// lnChoose returns ln C(n, k) via log-gamma.
func lnChoose(n, k int64) float64 {
	return lnGamma(float64(n+1)) - lnGamma(float64(k+1)) - lnGamma(float64(n-k+1))
}

const halfLn2Pi = 0.91893853320467274178032973640562

// lnGamma is a fast ln Γ(x) for the sampler's hot path: a two-term
// Stirling series for large arguments (absolute error < 1e-11 for
// x >= 64, far below the sampler's float64 noise floor), deferring to
// math.Lgamma below that.
func lnGamma(x float64) float64 {
	if x < 64 {
		v, _ := math.Lgamma(x)
		return v
	}
	return (x-0.5)*math.Log(x) - x + halfLn2Pi + 1/(12*x) - 1/(360*x*x*x)
}
