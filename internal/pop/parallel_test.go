// Tests of the node-path-seeded composition splitter (mvhSplitComp)
// against the sequential chains, of the engines' allocation-free batches,
// and of WithParallelism, which is a no-op: every worker target takes the
// one byte-identical trajectory.
package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"github.com/popsim/popsize/internal/stats"
)

// shrinkSplitter makes churn removals split their composition at
// test-scale configurations: compositions over more than 2 classes
// bisect instead of running one chain. The knob changes where node
// streams are consumed, so every run compared within one test must
// execute under the same shrink.
func shrinkSplitter(t *testing.T) {
	t.Helper()
	t.Cleanup(shrunkSplitter())
}

// shrunkSplitter applies shrinkSplitter's knob and returns the function
// that restores it, for callers that scope the shrink to part of a test.
func shrunkSplitter() (restore func()) {
	old := mvhLeafClasses
	mvhLeafClasses = 2
	return func() { mvhLeafClasses = old }
}

// TestMVHSplitCompInvariants: for arbitrary shapes the splitter's
// composition must conserve the sample size and respect per-class bounds,
// and must be a pure function of the seed.
func TestMVHSplitCompInvariants(t *testing.T) {
	shrinkSplitter(t)
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 300; trial++ {
		q := 1 + r.IntN(40)
		counts := make([]int64, q)
		var total int64
		for i := range counts {
			if r.IntN(4) == 0 {
				continue // zero classes must be handled
			}
			counts[i] = int64(r.IntN(1000))
			total += counts[i]
		}
		if total == 0 {
			continue
		}
		m := int64(r.IntN(int(total + 1)))
		seed := r.Uint64()
		draw := func() []int64 {
			dst := make([]int64, q)
			cum := prefixSums(nil, counts)
			mvhSplitComp(newNodeStream(), new(fenwick), seed, 1, counts, cum, 0, q, total, m, dst)
			return dst
		}
		first, again := draw(), draw()
		var sum int64
		for i, k := range first {
			if k < 0 || k > counts[i] {
				t.Fatalf("trial %d: class %d drew %d of %d", trial, i, k, counts[i])
			}
			sum += k
			if again[i] != k {
				t.Fatalf("trial %d: one seed drew two compositions: class %d %d vs %d",
					trial, i, k, again[i])
			}
		}
		if sum != m {
			t.Fatalf("trial %d: drew %d of m=%d", trial, sum, m)
		}
	}
}

// TestMVHSplitCompMoments: the splitter's per-class marginals must match
// the multivariate hypergeometric expectation m·c_i/N, like the
// sequential chain's (hypergeom_test.go).
func TestMVHSplitCompMoments(t *testing.T) {
	shrinkSplitter(t)
	counts := []int64{60, 25, 10, 5}
	const total, m, trials = int64(100), int64(20), 20000
	r := rand.New(rand.NewPCG(7, 8))
	cum := prefixSums(nil, counts)
	sums := make([]float64, len(counts))
	dst := make([]int64, len(counts))
	s, tree := newNodeStream(), new(fenwick)
	for trial := 0; trial < trials; trial++ {
		for i := range dst {
			dst[i] = 0
		}
		mvhSplitComp(s, tree, r.Uint64(), 1, counts, cum, 0, len(counts), total, m, dst)
		for i, k := range dst {
			sums[i] += float64(k)
		}
	}
	for i, c := range counts {
		want := float64(m) * float64(c) / float64(total)
		se := math.Sqrt(want * float64(total-c) / float64(total) / trials)
		if err := stats.MeanNear(sums[i]/trials, want, 5*se, 0.05); err != nil {
			t.Errorf("class %d: %v", i, err)
		}
	}
}

// parSignature summarizes everything observable about an engine run that
// the worker-count invariance suite compares: the exact end configuration,
// the interaction count, segmented parallel time, and state accounting.
func parSignature[S comparable](e Engine[S]) string {
	counts := e.Counts()
	keys := make([]string, 0, len(counts))
	for s, c := range counts {
		keys = append(keys, fmt.Sprintf("%v=%d", s, c))
	}
	sort.Strings(keys)
	return fmt.Sprintf("counts=%v n=%d i=%d t=%.12f d=%d",
		keys, e.N(), e.Interactions(), e.Time(), e.DistinctStates())
}

// TestWorkerCountInvariance: WithParallelism is a no-op kept for source
// compatibility, and callers (the bench's fork layer among them) compare
// runs built at different worker targets for equality. A pinned-seed run
// at every target must therefore produce identical end configurations and
// segment times on both multiset backends, for a deterministic rule, a
// randomness-consuming rule, and a mid-run churn schedule whose removals
// split their composition.
func TestWorkerCountInvariance(t *testing.T) {
	shrinkSplitter(t)
	rules := map[string]Rule[int]{"am": amRule, "coin": coinRule, "max": maxRule}
	backends := map[string]func(n int, rule Rule[int], par int) Engine[int]{
		"batch": func(n int, rule Rule[int], par int) Engine[int] {
			return NewBatch(n, func(i int, _ *rand.Rand) int { return i % 5 }, rule,
				WithSeed(42), WithParallelism(par))
		},
		"dense": func(n int, rule Rule[int], par int) Engine[int] {
			return NewDense(n, func(i int, _ *rand.Rand) int { return i % 5 }, rule,
				WithSeed(42), WithParallelism(par))
		},
	}
	const n = 3000
	pars := []int{0, 1, 2, 7, 8, runtime.GOMAXPROCS(0)}
	for bname, mk := range backends {
		for rname, rule := range rules {
			t.Run(bname+"/"+rname, func(t *testing.T) {
				var want string
				for _, par := range pars {
					e := mk(n, rule, par)
					e.Run(6 * n)
					e.AddAgents(1, n/2) // churn: join wave
					e.Run(2 * n)
					e.RemoveAgents(n) // churn: heavy leave
					e.Run(4 * n)
					got := parSignature[int](e)
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("par=%d diverged:\n got %s\nwant %s", par, got, want)
					}
				}
			})
		}
	}
}

// TestWorkerCountInvarianceDelegation runs the dense engine across its
// delegation boundary (n distinct initial states force an immediate
// switch to slot batches; the epidemic re-concentrates and re-enters
// pair-matrix batches) with churn landing mid-delegation. Every par value
// must take the identical trajectory, including its delegated stretch.
func TestWorkerCountInvarianceDelegation(t *testing.T) {
	shrinkSplitter(t)
	const n = 1200
	var want string
	for _, par := range []int{0, 1, 2, 7} {
		d := NewDense(n, func(i int, _ *rand.Rand) int { return i }, maxRule,
			WithSeed(9), WithDenseThreshold(48), WithParallelism(par))
		d.Run(int64(n)) // delegates immediately: n distinct states
		if !d.Delegated() {
			t.Fatal("engine did not delegate with n distinct initial states")
		}
		d.AddAgents(7, 300)
		d.RemoveAgents(200)
		d.Run(20 * int64(n)) // max-epidemic concentrates; re-enters dense mode
		if d.Delegated() {
			t.Fatal("engine never re-entered dense mode")
		}
		got := parSignature[int](d)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("par=%d diverged across delegation:\n got %s\nwant %s", par, got, want)
		}
	}
}

// denseBatchCases are the dense configurations whose pair-matrix batches
// run far above 2¹¹ receivers (ℓ ≈ 6300 at n = 10⁸, ≈ 20 000 at 10⁹): a
// three-state table majority, and ≈ 90 uniform states under a
// deterministic rule whose rows walk every sender state.
func denseBatchCases() []struct {
	name string
	mk   func(n int64) *DenseSim[int]
} {
	am := MustCompile(amTable())
	const q = 90
	states := make([]int, q)
	for i := range states {
		states[i] = i
	}
	shift := func(a, b int, _ *rand.Rand) (int, int) { return (a + b + 1) % q, b }
	return []struct {
		name string
		mk   func(n int64) *DenseSim[int]
	}{
		{"majority-q3", func(n int64) *DenseSim[int] {
			return NewDenseFromCounts([]int{1, -1}, []int64{n * 27 / 50, n - n*27/50}, am.Rule(),
				WithSeed(1), am.Option())
		}},
		{"shift-q90", func(n int64) *DenseSim[int] {
			counts := make([]int64, q)
			for i := range counts {
				counts[i] = n / q
			}
			counts[0] += n - n/q*q
			return NewDenseFromCounts(states, counts, shift, WithSeed(1))
		}},
	}
}

// TestRootLeafBatchAllocs: a batch reseeds the engine's leaf PCG and
// reuses its scratch, so once warm it allocates nothing — a pair-matrix
// batch at test scale, and a slot batch of about 5400 interactions at
// n = 2²⁶.
func TestRootLeafBatchAllocs(t *testing.T) {
	init := func(i int, _ *rand.Rand) int { return i % 5 }
	b := NewBatch(3000, init, maxRule, WithSeed(1))
	d := NewDense(3000, init, maxRule, WithSeed(1))
	big := NewBatchFromCounts([]int{-1, 0, 1}, []int64{1 << 24, 1 << 24, 1 << 25}, amRule, WithSeed(1))
	b.Run(30000)
	d.Run(30000)
	big.Run(1 << 20)
	if a := testing.AllocsPerRun(200, func() { b.slotBatch(1 << 20) }); a != 0 {
		t.Errorf("slot batch: %v allocations per batch, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { d.runBatch(1 << 20) }); a != 0 {
		t.Errorf("pair-matrix batch: %v allocations per batch, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { big.slotBatch(1 << 20) }); a != 0 {
		t.Errorf("slot batch at n=2²⁶: %v allocations per batch, want 0", a)
	}
}

// TestTreeBatchAllocs: a pair-matrix batch far above 2¹¹ receivers, the
// size that once took the splitter tree, runs the root leaf too and
// allocates nothing once warm — at n = 10⁸ for q = 3 and q ≈ 90.
func TestTreeBatchAllocs(t *testing.T) {
	for _, c := range denseBatchCases() {
		d := c.mk(100_000_000)
		d.Run(1 << 17) // intern the states and warm the cache and scratch
		if got := d.Stats().Batches; got == 0 || d.Interactions()/got <= 1<<11 {
			t.Fatalf("%s: batches average %d interactions, want above 2¹¹", c.name, d.Interactions()/max(got, 1))
		}
		if a := testing.AllocsPerRun(50, func() { d.runBatch(1 << 20) }); a != 0 {
			t.Errorf("%s: pair-matrix batch at n=10⁸: %v allocations per batch, want 0", c.name, a)
		}
	}
}

// BenchmarkDenseBatch times one pair-matrix batch far above 2¹¹ receivers
// for each of denseBatchCases at n = 10⁸ and 10⁹.
func BenchmarkDenseBatch(b *testing.B) {
	for _, c := range denseBatchCases() {
		for _, n := range []int64{100_000_000, 1_000_000_000} {
			b.Run(fmt.Sprintf("%s/n=%.0e", c.name, float64(n)), func(b *testing.B) {
				d := c.mk(n)
				d.Run(1 << 16) // intern the states and warm the cache and scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.runBatch(1 << 20)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/batch")
			})
		}
	}
}
