// Native fuzz targets for the sampling substrate — the univariate and
// multivariate hypergeometric samplers, the Fenwick tree, the churn
// removal chains and the run-length sampler — and for snapshot decoding.
// Each asserts structural invariants (support bounds, sum conservation,
// agreement with a reference oracle, no panics, draws confined to the
// permitted range) rather than distributions — the statistical
// properties are covered by the moment and equivalence suites; fuzzing
// hunts the inputs those suites never reach (degenerate classes, forced
// draws, extreme skew). The seed corpus doubles as a unit test under
// plain `go test`; CI additionally runs each target with -fuzztime=15s.
package pop

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// fuzzCounts decodes a byte string into a class-count vector: one class
// per byte, each holding 0..255 agents scaled by a few orders of
// magnitude depending on position, so small inputs already cover empty
// classes, heavy heads and long light tails. The ×10⁹ tier pushes
// pairwise count products past int64 (c·k wraps at c, k ≈ 3·10⁹), the
// regime where the heavy/light predicate must compare in 128 bits.
func fuzzCounts(raw []byte) ([]int64, int64) {
	if len(raw) > 64 {
		raw = raw[:64]
	}
	counts := make([]int64, len(raw))
	var total int64
	for i, b := range raw {
		c := int64(b)
		switch i % 4 {
		case 1:
			c *= 1000
		case 2:
			c *= 1000000
		case 3:
			c *= 1000000000
		}
		counts[i] = c
		total += c
	}
	return counts, total
}

func FuzzHypergeometric(f *testing.F) {
	f.Add(uint64(1), int64(100), int64(30), int64(40))
	f.Add(uint64(2), int64(10), int64(10), int64(7))
	f.Add(uint64(3), int64(1e12), int64(5e11), int64(4096))
	f.Add(uint64(4), int64(2), int64(1), int64(1))
	f.Add(uint64(5), int64(1000), int64(999), int64(998))
	// Overflow regressions: K = m = N/2 wraps the int64 mode-anchor
	// product (m+1)(K+1) past N ≈ 6·10⁹, and at N = 10¹² the stddev is
	// 2.5·10⁵ — parameters where the pre-HRUA walk took O(stddev) or,
	// with the wrapped anchor, O(support) per draw.
	f.Add(uint64(6), int64(1e10), int64(5e9), int64(5e9))
	f.Add(uint64(7), int64(1e12), int64(5e11), int64(5e11))
	f.Fuzz(func(t *testing.T, seed uint64, N, K, m int64) {
		// Normalize into the sampler's contract: 0 <= K, m <= N, N >= 1.
		if N < 0 {
			N = -(N + 1)
		}
		N = N%1_000_000_000_000 + 1
		if K < 0 {
			K = -(K + 1)
		}
		if m < 0 {
			m = -(m + 1)
		}
		K %= N + 1
		m %= N + 1
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		var x int64
		draw := func() { x = hypergeometric(r, N, K, m) }
		if N > 1<<32 {
			// A constant-time draw at any N finishes in microseconds; a
			// regression to the O(stddev) walk (or the wrapped-anchor
			// O(support) scan) would otherwise hang the fuzz worker
			// instead of failing it.
			within(t, 10*time.Second, draw)
		} else {
			draw()
		}
		lo := max(int64(0), m-(N-K))
		hi := min(m, K)
		if x < lo || x > hi {
			t.Fatalf("hypergeometric(N=%d, K=%d, m=%d) = %d outside support [%d, %d]", N, K, m, x, lo, hi)
		}
	})
}

func FuzzMultivariateHypergeometric(f *testing.F) {
	f.Add(uint64(1), []byte{10, 0, 3, 2}, uint64(4))
	f.Add(uint64(2), []byte{255, 255, 255}, uint64(400))
	f.Add(uint64(3), []byte{0, 0, 1}, uint64(1))
	f.Add(uint64(4), []byte{7}, uint64(7))
	// Two ×10⁹ classes (position i%4 == 3) with a sample size in the
	// billions: the per-class products c·m wrap int64, exercising the
	// 128-bit heavy/light predicate, and every univariate draw runs the
	// rejection sampler at large stddev.
	f.Add(uint64(5), []byte{1, 200, 3, 255, 0, 9, 2, 200}, uint64(3e9))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte, mRaw uint64) {
		counts, total := fuzzCounts(raw)
		if total == 0 {
			return
		}
		m := int64(mRaw % uint64(total+1))
		check := func(what string, dst []int64) {
			t.Helper()
			var sum int64
			for i, k := range dst {
				if k < 0 || k > counts[i] {
					t.Fatalf("%s: class %d drew %d of %d (counts=%v m=%d)", what, i, k, counts[i], counts, m)
				}
				sum += k
			}
			if sum != m {
				t.Fatalf("%s: allocated %d of m=%d (counts=%v)", what, sum, m, counts)
			}
		}
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		dst := make([]int64, len(counts))
		multivariateHypergeometric(r, counts, total, m, dst)
		check("chain", dst)
		// The splitter must satisfy the identical invariants for the same
		// shapes — and be a pure function of its seed.
		split := make([]int64, len(counts))
		cum := prefixSums(nil, counts)
		mvhSplitComp(newNodeStream(), new(fenwick), seed, 1, counts, cum, 0, len(counts), total, m, split)
		check("splitter", split)
		again := make([]int64, len(counts))
		mvhSplitComp(newNodeStream(), new(fenwick), seed, 1, counts, cum, 0, len(counts), total, m, again)
		for i := range split {
			if split[i] != again[i] {
				t.Fatalf("splitter not deterministic at class %d: %d vs %d", i, split[i], again[i])
			}
		}
	})
}

func FuzzFenwick(f *testing.F) {
	f.Add(uint64(1), []byte{5, 0, 3, 9, 1}, uint8(20))
	f.Add(uint64(2), []byte{1}, uint8(1))
	f.Add(uint64(3), []byte{0, 0, 255, 0}, uint8(50))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte, ops uint8) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		// Shadow oracle: a plain weight array updated in lock step. Every
		// findAndDec must land exactly where a linear cumulative scan
		// lands, and decrement exactly that weight.
		shadow := make([]int64, len(raw))
		var total int64
		for i, b := range raw {
			shadow[i] = int64(b)
			total += shadow[i]
		}
		var tree fenwick
		var ref refFenwick
		tree.reset(shadow)
		ref.reset(shadow)
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		for op := 0; op < int(ops); op++ {
			if total == 0 {
				break
			}
			if op%5 == 4 {
				// Occasionally move weight directly: a debit, as dense
				// pairRow's heavy cells make them, or weight added back,
				// as a with-replacement draw would.
				i := r.IntN(len(shadow))
				delta := int64(r.IntN(7))
				if op%10 == 4 {
					delta = -min(delta, shadow[i])
				}
				tree.add(i, delta)
				ref.add(i, delta)
				shadow[i] += delta
				total += delta
				continue
			}
			u := r.Int64N(total)
			got := tree.findAndDec(u)
			if want := ref.refFindAndDec(u); got != want {
				t.Fatalf("findAndDec(%d) = %d, branchy reference %d (weights %v)", u, got, want, shadow)
			}
			// Oracle: the index whose cumulative weight interval holds u.
			want := 0
			acc := int64(0)
			for ; want < len(shadow); want++ {
				if u < acc+shadow[want] {
					break
				}
				acc += shadow[want]
			}
			if got != want {
				t.Fatalf("findAndDec(%d) = %d, oracle %d (weights %v)", u, got, want, shadow)
			}
			if shadow[got] <= 0 {
				t.Fatalf("findAndDec(%d) landed on zero-weight index %d (weights %v)", u, got, shadow)
			}
			shadow[got]--
			total--
		}
		// The tree must agree with the shadow for every remaining index:
		// drain it completely and count hits per index.
		remaining := make([]int64, len(shadow))
		for ; total > 0; total-- {
			got := tree.findAndDec(0)
			if want := ref.refFindAndDec(0); got != want {
				t.Fatalf("drain: findAndDec(0) = %d, branchy reference %d", got, want)
			}
			remaining[got]++
			// u = 0 always lands on the first positive-weight index; the
			// oracle property was already checked above, so here we only
			// need the multiset to drain consistently.
		}
		for i := range shadow {
			if remaining[i] > shadow[i] {
				t.Fatalf("index %d drained %d times but had weight %d", i, remaining[i], shadow[i])
			}
		}
	})
}

// FuzzRemoveCountsChain checks that the composition chain and the
// splitter's removeSample remove exactly k agents without driving a class
// negative. The chain also runs over a class sub-range [lo, hi) picked
// from the seed, as the splitter's leaves call it, and must then debit
// only classes inside the range.
func FuzzRemoveCountsChain(f *testing.F) {
	f.Add(uint64(1), []byte{10, 0, 3, 2}, uint64(5))
	f.Add(uint64(2), []byte{255, 1, 1, 1, 1, 1, 1, 1, 1}, uint64(200))
	f.Add(uint64(3), []byte{0, 7}, uint64(7))
	// Billions-scale removal across ×10⁹ classes: wraps the raw c·k
	// products in the heavy/light split and forces rejection-sampler
	// draws at large stddev in both the chain and the splitter.
	f.Add(uint64(4), []byte{0, 100, 5, 200, 1, 0, 0, 255}, uint64(2e9))
	f.Add(uint64(0x301), []byte{9, 200, 3, 1, 40, 0, 2, 7, 1}, uint64(12345))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte, kRaw uint64) {
		counts, total := fuzzCounts(raw)
		if total == 0 {
			return
		}
		run := func(what string, lo, hi int, k int64, remove func(cs []int64, total, k int64, debit func(id int32, d int64))) {
			t.Helper()
			cs := append([]int64(nil), counts...)
			var rangeTotal int64
			for _, c := range cs[lo:hi] {
				rangeTotal += c
			}
			left := rangeTotal
			var removed int64
			debit := func(id int32, d int64) {
				if int(id) < lo || int(id) >= hi {
					t.Fatalf("%s: debit of id %d outside [%d, %d)", what, id, lo, hi)
				}
				if d >= 0 {
					t.Fatalf("%s: non-negative debit %d", what, d)
				}
				cs[id] += d
				if cs[id] < 0 {
					t.Fatalf("%s: class %d went negative (counts=%v k=%d)", what, id, counts, k)
				}
				left += d
				removed -= d
			}
			remove(cs, rangeTotal, k, debit)
			if removed != k || left != rangeTotal-k {
				t.Fatalf("%s: removed %d of k=%d (left %d of %d)", what, removed, k, left, rangeTotal)
			}
		}
		chain := func(tree *fenwick, lo, hi int) func(cs []int64, total, k int64, debit func(id int32, d int64)) {
			return func(cs []int64, total, k int64, debit func(id int32, d int64)) {
				rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
				removeCountsChain(rng, tree, cs, lo, hi, total, k, func(i int, d int64) { debit(int32(i), -d) })
			}
		}
		k := int64(kRaw % uint64(total+1))
		run("chain", 0, len(counts), k, chain(new(fenwick), 0, len(counts)))
		run("splitter", 0, len(counts), k, func(cs []int64, total, k int64, debit func(id int32, d int64)) {
			m := multiset[int]{counts: append([]int64(nil), cs...), total: total, leaf: newNodeStream()}
			for id, d := range m.removeSample(seed, k, nil) {
				if d > 0 {
					debit(int32(id), -d)
				}
			}
			if !slices.Equal(m.counts, cs) {
				t.Fatalf("splitter: removeSample left counts %v, its composition debits to %v", m.counts, cs)
			}
		})
		lo := int(seed % uint64(len(counts)+1))
		hi := lo + int((seed>>8)%uint64(len(counts)-lo+1))
		var rangeTotal int64
		for _, c := range counts[lo:hi] {
			rangeTotal += c
		}
		kr := int64(kRaw % uint64(rangeTotal+1))
		run("chain range", lo, hi, kr, chain(nil, lo, hi))
	})
}

// FuzzRunLengths checks the checkpointed run-length sampler against the
// reference loop for n in [8, 2⁴⁰], a cap up to the dense production
// cap, and the uniform given by one source word. The table is drawn from
// at n, then at a second population and at n again, so both resets (a
// churn event and its reversal) must reproduce the loop too.
func FuzzRunLengths(f *testing.F) {
	f.Add(uint64(10000), uint64(10001), uint64(1)<<52, uint64(1<<20))
	f.Add(uint64(0), uint64(1), uint64(0), uint64(0))
	f.Add(uint64(1e9), uint64(1e9-1), uint64(12345), uint64(65535))
	f.Add(uint64(1<<40), uint64(64), uint64(1)<<53-1, uint64(63))
	f.Fuzz(func(t *testing.T, nRaw, n2Raw, word, capRaw uint64) {
		var r runLengths
		for _, raw := range []uint64{nRaw, n2Raw, nRaw} {
			n := int64(8 + raw%(1<<40-7))
			maxPairs := 1 + int64(capRaw%uint64(min(denseMaxPairs, n/3+1)))
			checkDraw(t, &r, wordSource(word), wordSource(word), n, maxPairs)
		}
	})
}

// FuzzUnmarshalSnapshot feeds arbitrary bytes through UnmarshalSnapshot
// and Restore, which must reject malformed input with an error rather
// than panic. An accepted snapshot of at most 4096 agents must then run
// 4n interactions promptly and advance Interactions() by exactly 4n —
// the property negative re-entry budgets once broke.
func FuzzUnmarshalSnapshot(f *testing.F) {
	blob := func(e Engine[int], k int64, mutate func(*Snapshot[int])) []byte {
		e.Run(k)
		snap, err := e.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		mutate(snap)
		b, err := snap.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	keep := func(*Snapshot[int]) {}
	init := func(i int, _ *rand.Rand) int { return i % 5 }
	zero := func(int, *rand.Rand) int { return 0 }
	for _, bk := range []Backend{Sequential, Batched, Dense} {
		for _, k := range []int64{900, 1801} {
			f.Add(blob(NewEngine(300, init, mixedRule, WithSeed(7), WithBackend(bk)), k, keep))
		}
	}
	fallback := func() Engine[int] {
		return NewBatch(600, zero, explodeRule, WithSeed(5), WithBatchThreshold(16))
	}
	delegated := func() Engine[int] {
		return NewDense(600, zero, explodeRule, WithSeed(5), WithDenseThreshold(8))
	}
	f.Add(blob(fallback(), 20*600, keep))
	f.Add(blob(delegated(), 2*600, keep))
	f.Add(blob(fallback(), 20*600, func(s *Snapshot[int]) { s.SeqRecheck = -5000 }))
	f.Add(blob(delegated(), 2*600, func(s *Snapshot[int]) { s.DelegateRecheck = -7000 }))
	f.Add(blob(NewBatch(300, init, mixedRule, WithSeed(7)), 900, func(s *Snapshot[int]) {
		s.N = 2
		s.States = []int{0, 1, 2}
		s.Counts = []int64{math.MaxInt64, math.MaxInt64, 4}
	}))
	f.Add(blob(NewDense(600, zero, explodeRule, WithSeed(5), WithDenseThreshold(8), WithBatchThreshold(16)), 5*600, keep))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := UnmarshalSnapshot[int](data)
		if err != nil {
			return
		}
		e, err := Restore(snap, mixedRule)
		if err != nil || e.N() > 4096 {
			return
		}
		before, k := e.Interactions(), int64(4*e.N())
		within(t, 10*time.Second, func() { e.Run(k) })
		if got := e.Interactions() - before; got != k {
			t.Fatalf("Run(%d) on a restored %s snapshot advanced Interactions() by %d", k, snap.Backend, got)
		}
	})
}
