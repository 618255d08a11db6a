// Tests of the deterministic intra-trial parallelism layer: worker-count
// invariance (the headline guarantee — `-par 1` and `-par 16` are
// byte-identical), splitter distribution checks against the sequential
// chains, the fork work gate, and the fork-join budget.
package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/popsim/popsize/internal/stats"
)

// shrinkSplitter makes the splitter recurse and fork at test-scale
// populations: pair-matrix leaves of 16 receivers, compositions split
// above 2 classes, a tiny fork threshold, and enough GOMAXPROCS that a
// parallel region gets more than one worker on a small CI machine. Slot
// batches have no tree, so the shrink leaves them alone. The leaf knobs
// change where node streams are consumed, so every run compared within
// one test must execute under the same shrink.
func shrinkSplitter(t *testing.T) {
	t.Helper()
	t.Cleanup(shrunkSplitter())
}

// shrunkSplitter applies shrinkSplitter's knobs and returns the function
// that restores the old ones, for callers that scope the shrink to part of
// a test (deferred, it also runs when a t.Fatal unwinds the goroutine).
func shrunkSplitter() (restore func()) {
	oldFork, oldClasses, oldMass := parMinForkWork, mvhLeafClasses, splitLeafMass
	oldProcs := runtime.GOMAXPROCS(4)
	parMinForkWork, mvhLeafClasses, splitLeafMass = 4, 2, 16
	return func() {
		parMinForkWork, mvhLeafClasses, splitLeafMass = oldFork, oldClasses, oldMass
		runtime.GOMAXPROCS(oldProcs)
	}
}

func TestResolveParallelism(t *testing.T) {
	if got := resolveParallelism(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("auto: %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, p := range []int{1, 2, 7} {
		if got := resolveParallelism(p); got != p {
			t.Errorf("explicit par %d: %d, want %d", p, got, p)
		}
	}
}

// TestMVHSplitCompInvariants: for arbitrary shapes the splitter's
// composition must conserve the sample size and respect per-class bounds,
// and must be a pure function of the seed (worker-count independent).
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
		draw := func(workers int) []int64 {
			dst := make([]int64, q)
			cum := prefixSums(nil, counts)
			g := newParGroup(workers)
			mvhSplitComp(g, newNodeStream(), seed, 1, counts, cum, 0, q, total, m, dst)
			g.wait()
			return dst
		}
		serial := draw(1)
		parallel := draw(4)
		var sum int64
		for i, k := range serial {
			if k < 0 || k > counts[i] {
				t.Fatalf("trial %d: class %d drew %d of %d", trial, i, k, counts[i])
			}
			sum += k
			if parallel[i] != k {
				t.Fatalf("trial %d: worker count changed the draw: class %d %d vs %d",
					trial, i, k, parallel[i])
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
	for trial := 0; trial < trials; trial++ {
		for i := range dst {
			dst[i] = 0
		}
		mvhSplitComp(nil, newNodeStream(), r.Uint64(), 1, counts, cum, 0, len(counts), total, m, dst)
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

// TestWorkerCountInvariance is the headline determinism guarantee: a
// pinned-seed run at -par 0 (auto), 1 and 8 (and 2, and 7) produces identical
// end configurations and segment times on both multiset backends, for a
// deterministic rule, a randomness-consuming rule, and a mid-run churn
// schedule.
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

// TestRootLeafBatchAllocs: a root-leaf batch reseeds the engine's leaf
// PCG and reuses its scratch, so once warm it allocates nothing — also a
// slot batch of about 5400 interactions at n = 2²⁶, since every slot
// batch is the root leaf whatever its length.
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

// TestTreeBatchAllocs: above the root leaf a pair-matrix batch at one
// worker reuses the engine's node stream, miss buffers and pooled node
// scratch, so once warm it allocates (almost) nothing either.
func TestTreeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	d := NewDenseFromCounts([]int{-1, 0, 1}, []int64{40_000_000, 20_000_000, 40_000_000}, amRule,
		WithSeed(1), WithParallelism(1))
	d.Run(1 << 20)
	if got := d.Stats().Batches; got == 0 || d.Interactions()/got <= splitLeafMass {
		t.Fatalf("batches average %d interactions, want above splitLeafMass %d", d.Interactions()/max(got, 1), splitLeafMass)
	}
	if a := testing.AllocsPerRun(200, func() { d.runBatch(1 << 20) }); a >= 1 {
		t.Errorf("splitter pair-matrix batch: %v allocations per batch, want < 1", a)
	}
}

// TestSplitterForkGate: the work gate keeps the splitter from forking
// where it has nothing to hand off — a q ≤ 3 tree batch at production
// knobs runs inline at any worker target — while a wide configuration
// still forks, and under shrinkSplitter the dense configurations of
// TestWorkerCountInvariance still fork, so the race step exercises real
// fan-out.
func TestSplitterForkGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	par := runtime.GOMAXPROCS(0)
	uniform := func(q int) ([]int, []int64) {
		states, counts := make([]int, q), make([]int64, q)
		for i := range states {
			states[i], counts[i] = i, 100_000_000/int64(q)
		}
		return states, counts
	}
	forks := func(d *DenseSim[int], k int64) int64 {
		var n atomic.Int64
		d.forkEvents = &n
		d.Run(k)
		return n.Load()
	}
	states, counts := uniform(3)
	if f := forks(NewDenseFromCounts(states, counts, amRule, WithSeed(3), WithParallelism(par)), 1<<21); f != 0 {
		t.Errorf("q=3 tree batches forked %d goroutines at par=%d, want 0", f, par)
	}
	states, counts = uniform(64)
	if f := forks(NewDenseFromCounts(states, counts, coinRule, WithSeed(3), WithParallelism(par)), 1<<17); f == 0 {
		t.Errorf("q=64 tree batches never forked at par=%d", par)
	}

	// Deferred, not a t.Cleanup: the shrink's own GOMAXPROCS restore must
	// unwind before the outer one, or the machine's value is lost.
	defer shrunkSplitter()()
	const n = 3000
	init := func(i int, _ *rand.Rand) int { return i % 5 }
	var total atomic.Int64
	for _, rule := range []Rule[int]{amRule, coinRule, maxRule} {
		d := NewDense(n, init, rule, WithSeed(42), WithParallelism(par))
		d.forkEvents = &total
		d.Run(6 * n)
		d.AddAgents(1, n/2)
		d.Run(2 * n)
		d.RemoveAgents(n)
		d.Run(4 * n)
	}
	if total.Load() == 0 {
		t.Error("dense: no fork under shrinkSplitter")
	}
}

// BenchmarkDenseTreeBatch times one pair-matrix batch above the root leaf
// (ℓ ≈ 6300 > splitLeafMass at n = 10⁸) at the auto worker target and at
// one worker: a three-state table majority, where the work gate keeps
// every batch inline, and 64 uniform states under a randomness-consuming
// rule, where the rows fork and every cell goes through the serial miss
// pass.
func BenchmarkDenseTreeBatch(b *testing.B) {
	const n = 100_000_000
	am := MustCompile(amTable())
	uniform := make([]int, 64)
	for i := range uniform {
		uniform[i] = i
	}
	cases := []struct {
		name string
		mk   func(par int) *DenseSim[int]
	}{
		{"majority-q3", func(par int) *DenseSim[int] {
			return NewDenseFromCounts([]int{1, -1}, []int64{n * 27 / 50, n * 23 / 50}, am.Rule(),
				WithSeed(1), WithParallelism(par), am.Option())
		}},
		{"coin-q64", func(par int) *DenseSim[int] {
			counts := make([]int64, len(uniform))
			for i := range counts {
				counts[i] = n / int64(len(uniform))
			}
			return NewDenseFromCounts(uniform, counts, coinRule, WithSeed(1), WithParallelism(par))
		}},
	}
	for _, c := range cases {
		for _, row := range []struct {
			suffix string
			par    int
		}{{"", 0}, {"/par=1", 1}} {
			b.Run(c.name+row.suffix, func(b *testing.B) {
				d := c.mk(row.par)
				d.Run(1 << 16) // intern the states and warm the caches and pools
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

// BenchmarkSplitterFork measures what the work gate (parMinForkWork)
// trades off: two halves of k hypergeometric draws each, run inline or
// with one half forked to a second worker. The fork pays only once k is
// well above the fork-join handoff's cost in draws.
func BenchmarkSplitterFork(b *testing.B) {
	half := func(s *nodeStream, k int) {
		r := s.at(1, 2)
		for j := 0; j < k; j++ {
			benchSink += hypergeometric(r, 1_000_000, 300_000, 5_000)
		}
	}
	for _, k := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("inline/draws=%d", k), func(b *testing.B) {
			s := newNodeStream()
			for i := 0; i < b.N; i++ {
				half(s, k)
				half(s, k)
			}
		})
		b.Run(fmt.Sprintf("fork/draws=%d", k), func(b *testing.B) {
			s := newNodeStream()
			for i := 0; i < b.N; i++ {
				g := newParGroup(2)
				g.forkNode(func(s *nodeStream) { half(s, k) })
				half(s, k)
				g.wait()
			}
		})
	}
}

// TestParGroupBudget: the fork-join helper never runs more than the
// region's worker count concurrently, and a nil group runs inline.
func TestParGroupBudget(t *testing.T) {
	const workers = 3
	g := newParGroup(workers)
	var cur, peak atomic.Int64
	var ran atomic.Int64
	body := func() {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		ran.Add(1)
	}
	for i := 0; i < 50; i++ {
		g.fork(body)
	}
	g.wait()
	if ran.Load() != 50 {
		t.Fatalf("ran %d of 50 forks", ran.Load())
	}
	// The forking goroutine itself plus workers-1 extras.
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker budget %d", p, workers)
	}
	var inline int64
	(*parGroup)(nil).fork(func() { inline = 1 })
	(*parGroup)(nil).wait()
	if inline != 1 {
		t.Error("nil parGroup did not run the body inline")
	}
}
