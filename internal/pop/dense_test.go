package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// TestDenseConservationEveryBatch asserts exact agent-count conservation
// after every single pair-matrix batch, via the test hook that fires at
// batch commit.
func TestDenseConservationEveryBatch(t *testing.T) {
	const n = 2000
	d := NewDense(n, func(i int, _ *rand.Rand) int { return i % 7 }, amRule, WithSeed(11))
	batches := 0
	d.batchEvents = func(ell int, collided bool) {
		batches++
		if got := countsSum[int](d); got != n {
			t.Fatalf("after batch %d (ell=%d, collided=%v): %d agents, want %d",
				batches, ell, collided, got, n)
		}
		if d.total != int64(n) {
			t.Fatalf("running total %d, want %d", d.total, n)
		}
	}
	d.RunTime(30)
	if batches == 0 {
		t.Fatal("no batches executed")
	}
}

// TestDenseRunExactInteractionCount verifies Run(k) executes exactly k
// interactions for awkward k, including collision steps at batch ends.
func TestDenseRunExactInteractionCount(t *testing.T) {
	d := NewDense(997, func(i int, _ *rand.Rand) int { return i % 3 }, amRule, WithSeed(5))
	total := int64(0)
	for _, k := range []int64{1, 2, 3, 17, 997, 12345, 7} {
		d.Run(k)
		total += k
		if d.Interactions() != total {
			t.Fatalf("after Run(%d): %d interactions, want %d", k, d.Interactions(), total)
		}
	}
}

// TestDenseRunLengths sanity-checks the collision-free run-length sampler
// on the dense path: the mean batch length is Θ(√n), as for BatchSim.
func TestDenseRunLengths(t *testing.T) {
	const n = 10000
	d := NewDense(n, func(int, *rand.Rand) int { return 0 }, amRule, WithSeed(2))
	var sum, count float64
	d.batchEvents = func(ell int, collided bool) {
		if collided {
			sum += float64(ell)
			count++
		}
	}
	d.RunTime(100)
	if count < 100 {
		t.Fatalf("only %v collision-terminated batches", count)
	}
	mean := sum / count
	root := math.Sqrt(n)
	if mean < 0.3*root || mean > 3*root {
		t.Errorf("mean collision-free run %.1f, want Θ(√n) ≈ %.1f", mean, root)
	}
}

// TestDenseMultiplicityAggregation: on a deterministic protocol the pair
// matrix applies transitions with multiplicity, so rule calls (and even
// cache hits, which are per cell) must be far fewer than interactions.
func TestDenseMultiplicityAggregation(t *testing.T) {
	const n = 100000
	d := NewDense(n, func(i int, _ *rand.Rand) int { return i % 3 }, amRule, WithSeed(14))
	d.RunTime(10)
	st := d.Stats()
	if st.Batches == 0 || st.BatchedInteractions == 0 {
		t.Fatalf("no dense batches ran: %+v", st)
	}
	work := st.RuleCalls + st.PairCells
	if work*10 > st.BatchedInteractions {
		t.Errorf("pair-matrix aggregation ineffective: %d rule calls + %d cells for %d interactions",
			st.RuleCalls, st.PairCells, st.BatchedInteractions)
	}
}

// TestDenseCachePolicy: transitions that consume randomness must never be
// served from the deterministic-transition cache (nor applied with
// multiplicity); deterministic ones must.
func TestDenseCachePolicy(t *testing.T) {
	rnd := NewDense(3000, func(i int, _ *rand.Rand) int { return i % 3 }, coinRule, WithSeed(4))
	rnd.RunTime(10)
	st := rnd.Stats()
	if st.CacheHits != 0 {
		t.Errorf("randomized rule served %d cached transitions", st.CacheHits)
	}
	if st.RuleCalls != st.BatchedInteractions {
		t.Errorf("randomized rule: %d rule calls for %d interactions, want one per interaction",
			st.RuleCalls, st.BatchedInteractions)
	}
	det := NewDense(3000, func(i int, _ *rand.Rand) int { return i % 3 }, amRule, WithSeed(4))
	det.RunTime(10)
	st = det.Stats()
	if st.CacheHits == 0 {
		t.Error("deterministic rule never hit the cache")
	}
	if st.CacheHits < st.RuleCalls {
		t.Errorf("expected cache hits (%d) to dominate rule calls (%d)", st.CacheHits, st.RuleCalls)
	}
}

// TestDenseDelegationTriggers: a state-exploding protocol must trip the
// live-state threshold and delegate to slot batches.
func TestDenseDelegationTriggers(t *testing.T) {
	d := NewDense(500, func(int, *rand.Rand) int { return 0 }, explodeRule,
		WithSeed(3), WithDenseThreshold(32))
	d.RunTime(40)
	st := d.Stats()
	if st.Delegations == 0 {
		t.Fatalf("no delegation despite exploding states (live=%d)", d.LiveStates())
	}
	if st.DelegatedInteractions == 0 {
		t.Error("delegated mode executed no interactions")
	}
	if !d.Delegated() {
		t.Error("expected the engine to still be delegated under state explosion")
	}
	if got := countsSum[int](d); got != 500 {
		t.Errorf("conservation after delegation: %d agents, want 500", got)
	}
}

// TestDenseDelegatedFallbackStats: n distinct initial states exceed both
// WithDenseThreshold and WithBatchThreshold, so the DenseSim delegates and
// its slot batches drop to the agent-array fallback at once; the
// max-epidemic then collapses the configuration. Stats must report the
// fallback stretch next to the delegation.
func TestDenseDelegatedFallbackStats(t *testing.T) {
	d := NewDense(500, func(i int, _ *rand.Rand) int { return i }, maxRule,
		WithSeed(7), WithDenseThreshold(32), WithBatchThreshold(128))
	d.RunTime(80)
	st := d.Stats()
	if st.Delegations == 0 || st.Fallbacks == 0 || st.SeqInteractions == 0 {
		t.Fatalf("delegated run never fell back to the agent array: %+v", st)
	}
	if st.SeqInteractions > st.DelegatedInteractions {
		t.Errorf("%d fallback interactions exceed the %d delegated ones", st.SeqInteractions, st.DelegatedInteractions)
	}
	if got := countsSum[int](d); got != 500 {
		t.Errorf("conservation after fallback: %d agents, want 500", got)
	}
}

// TestDenseDelegationReentry: a population seeded with n distinct values
// exceeds the threshold immediately, but the max-epidemic collapses it to
// one live state, after which the engine must return to dense mode.
func TestDenseDelegationReentry(t *testing.T) {
	const n = 500
	d := NewDense(n, func(i int, _ *rand.Rand) int { return i }, maxRule,
		WithSeed(7), WithDenseThreshold(64))
	d.RunTime(80)
	st := d.Stats()
	if st.Delegations == 0 {
		t.Fatal("expected an immediate delegation with n distinct initial states")
	}
	if st.DenseReentries == 0 {
		t.Fatalf("no re-entry after collapse (live=%d)", d.LiveStates())
	}
	if d.Delegated() {
		t.Error("still delegated after the configuration collapsed")
	}
	if !d.All(func(v int) bool { return v == n-1 }) {
		t.Error("epidemic did not converge to the maximum")
	}
	if st.Batches == 0 {
		t.Error("no dense batches ran after re-entry")
	}
	if d.Interactions() != int64(80*n) {
		t.Errorf("interaction count %d across delegation, want %d", d.Interactions(), 80*n)
	}
}

// TestDenseCountersCoverDelegation: the transition-resolution counters
// keep counting while the engine is delegated, and never fall at a mode
// switch.
func TestDenseCountersCoverDelegation(t *testing.T) {
	d := NewDense(600, func(i int, _ *rand.Rand) int { return i }, mixedRule,
		WithSeed(13), WithDenseThreshold(48))
	resolved := func() int64 {
		st := d.Stats()
		return st.CacheHits + st.RuleCalls + st.TableHits
	}
	var last int64
	delegatedSteps := 0
	for i := 0; i < 30; i++ {
		wasDelegated, before := d.Delegated(), resolved()
		d.RunTime(1)
		total := resolved()
		if total < last {
			t.Fatalf("step %d: resolution counter total fell from %d to %d", i, last, total)
		}
		last = total
		if wasDelegated {
			delegatedSteps++
			if total <= before {
				t.Errorf("step %d: resolution counters stuck at %d while delegated", i, before)
			}
		}
	}
	if delegatedSteps == 0 || d.Stats().DenseReentries == 0 {
		t.Fatalf("run never delegated and re-entered: %+v", d.Stats())
	}
}

// TestDenseDeterminism: the same seed must reproduce the identical
// configuration trajectory, checkpoint by checkpoint, including across
// delegation and re-entry.
func TestDenseDeterminism(t *testing.T) {
	mk := func() *DenseSim[int] {
		return NewDense(5000, func(i int, _ *rand.Rand) int { return i % 5 }, amRule, WithSeed(9))
	}
	d1, d2 := mk(), mk()
	for i := 0; i < 10; i++ {
		d1.RunTime(2)
		d2.RunTime(2)
		if d1.Interactions() != d2.Interactions() {
			t.Fatalf("interaction counts diverged: %d vs %d", d1.Interactions(), d2.Interactions())
		}
		if !reflect.DeepEqual(d1.Counts(), d2.Counts()) {
			t.Fatalf("checkpoint %d: configurations diverged", i)
		}
	}
	// Through delegation: distinct initial states force a delegated phase.
	mkDel := func() *DenseSim[int] {
		return NewDense(600, func(i int, _ *rand.Rand) int { return i }, maxRule,
			WithSeed(13), WithDenseThreshold(48))
	}
	e1, e2 := mkDel(), mkDel()
	for i := 0; i < 10; i++ {
		e1.RunTime(8)
		e2.RunTime(8)
		if !reflect.DeepEqual(e1.Counts(), e2.Counts()) {
			t.Fatalf("delegation checkpoint %d: configurations diverged", i)
		}
	}
	if e1.Stats().DenseReentries == 0 {
		t.Error("determinism run never exercised re-entry")
	}
}

// TestDenseDistinctStates: on a protocol that can only shuffle its initial
// values (max-epidemic), the dense engine must report exactly the initial
// distinct-state count.
func TestDenseDistinctStates(t *testing.T) {
	const k = 37
	d := NewDense(2000, func(i int, _ *rand.Rand) int { return i % k }, maxRule, WithSeed(6))
	d.RunTime(30)
	if got := d.DistinctStates(); got != k {
		t.Errorf("dense DistinctStates = %d, want %d", got, k)
	}
}

// TestDenseCompaction: a protocol cycling through many short-lived states
// must keep the interning tables near the live count via compaction, and
// stay correct while doing so.
func TestDenseCompaction(t *testing.T) {
	// Threshold raised to the batch default so the state churn compacts in
	// dense mode instead of delegating.
	d := NewDense(4000, func(i int, _ *rand.Rand) int { return i % 2 },
		func(a, c int, _ *rand.Rand) (int, int) {
			return (a + 2) % 100000, c
		}, WithSeed(8), WithDenseThreshold(8192))
	d.RunTime(1000)
	if st := d.Stats(); st.Compactions <= 1 { // construction itself compacts once
		t.Error("no compactions despite state churn")
	}
	if got := countsSum[int](d); got != 4000 {
		t.Errorf("conservation after compactions: %d agents, want 4000", got)
	}
	if d.DistinctStates() < 1000 {
		t.Errorf("DistinctStates = %d, expected a long state cycle", d.DistinctStates())
	}
}

// TestDenseRejectsInteractionCounts pins the documented panic.
func TestDenseRejectsInteractionCounts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense with WithInteractionCounts did not panic")
		}
	}()
	NewDense(10, func(int, *rand.Rand) int { return 0 }, amRule, WithInteractionCounts())
}

// TestDenseHugePopulation: the count-vector representation makes a 10⁹-
// agent simulation a routine test — no agent-sized allocation anywhere.
// (The agent-array backends cannot even construct this population: the
// array alone would need several gigabytes.)
func TestDenseHugePopulation(t *testing.T) {
	const n = int64(1_000_000_000)
	d := NewDenseFromCounts([]int{1, -1}, []int64{n / 2, n - n/2}, amRule, WithSeed(21))
	// A delegation here would run 10⁹ agents in slot batches (whose
	// fallback is an agent array); trip the hook's panic at the moment of
	// violation rather than inferring it from stats afterwards.
	d.forceNoDelegate = true
	d.Run(2_000_000)
	if d.total != n {
		t.Fatalf("conservation at n=10⁹: %d agents", d.total)
	}
	if st := d.Stats(); st.Delegations != 0 || st.Batches == 0 {
		t.Errorf("expected pure dense batching at 10⁹, got %+v", st)
	}
	// The approximate-majority drift is tiny over 2·10⁶ interactions of a
	// balanced 10⁹ population; all three states should be live.
	if d.LiveStates() != 3 {
		t.Errorf("live states = %d, want 3", d.LiveStates())
	}
}

// TestFromCountsValidation pins the multiset constructors' contract:
// duplicate states accumulate, zero counts are skipped, and invalid
// multisets panic.
func TestFromCountsValidation(t *testing.T) {
	d := NewDenseFromCounts([]int{1, 2, 1, 3}, []int64{4, 5, 6, 0}, amRule, WithSeed(1))
	want := map[int]int{1: 10, 2: 5}
	if got := d.Counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("Counts() = %v, want %v", got, want)
	}
	if d.N() != 15 {
		t.Errorf("N() = %d, want 15", d.N())
	}
	for name, fn := range map[string]func(){
		"dense mismatched lengths": func() { NewDenseFromCounts([]int{1}, []int64{1, 2}, amRule) },
		"dense negative count":     func() { NewDenseFromCounts([]int{1}, []int64{-1}, amRule) },
		"dense too small":          func() { NewDenseFromCounts([]int{1}, []int64{1}, amRule) },
		"batch mismatched lengths": func() { NewBatchFromCounts([]int{1}, []int64{1, 2}, amRule) },
		"batch negative count":     func() { NewBatchFromCounts([]int{1}, []int64{-1}, amRule) },
		"batch too small":          func() { NewBatchFromCounts([]int{1}, []int64{0}, amRule) },
		"engine negative count": func() {
			NewEngineFromCounts([]int{1}, []int64{-1}, amRule, WithBackend(Sequential))
		},
		// Counts wrapping int64 to a total of 2 once built a "2-agent"
		// engine holding 2⁶⁴ agents' worth of counts.
		"batch count overflow": func() {
			NewBatchFromCounts([]int{0, 1, 2}, []int64{math.MaxInt64, math.MaxInt64, 4}, amRule)
		},
		"dense count overflow": func() {
			NewDenseFromCounts([]int{0, 1, 2}, []int64{math.MaxInt64, math.MaxInt64, 4}, amRule)
		},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: no panic", name)
				} else if strings.Contains(name, "overflow") && !strings.Contains(fmt.Sprint(r), "population size") {
					t.Errorf("%s: panic %q does not name the population size", name, r)
				}
			}()
			fn()
		}()
	}
}

// TestNewEngineFromCounts covers backend selection and the sequential
// expansion path of the multiset engine constructor.
func TestNewEngineFromCounts(t *testing.T) {
	states := []int{1, -1, 0}
	counts := []int64{40, 30, 30}
	for _, tc := range []struct {
		backend Backend
		want    string
	}{
		{Sequential, "*pop.Sim[int]"},
		{Batched, "*pop.BatchSim[int]"},
		{Dense, "*pop.DenseSim[int]"},
		{Auto, "*pop.Sim[int]"}, // 100 agents: below the batch cutoff
	} {
		e := NewEngineFromCounts(states, counts, amRule, WithSeed(3), WithBackend(tc.backend))
		if got := fmt.Sprintf("%T", e); got != tc.want {
			t.Errorf("backend %v: engine type %s, want %s", tc.backend, got, tc.want)
		}
		if got := countsSum[int](e); got != 100 {
			t.Errorf("backend %v: %d agents, want 100", tc.backend, got)
		}
		e.Run(500)
		if got := countsSum[int](e); got != 100 {
			t.Errorf("backend %v after run: %d agents, want 100", tc.backend, got)
		}
	}
	// Auto must pick a multiset backend once expansion would be large.
	big := NewEngineFromCounts([]int{0, 1}, []int64{1 << 22, 1 << 22}, amRule)
	if _, ok := big.(*Sim[int]); ok {
		t.Error("Auto expanded a multi-million-agent multiset into an agent array")
	}
}

// TestDenseStepOnlyPath: the single-interaction multiset step keeps the
// interaction count and conservation on a dense engine (its law is the
// step case of TestEngineLawOracle).
func TestDenseStepOnlyPath(t *testing.T) {
	d := NewDense(50, func(i int, _ *rand.Rand) int { return i % 4 }, amRule, WithSeed(17))
	for i := 0; i < 200; i++ {
		d.Step()
	}
	if d.Interactions() != 200 {
		t.Errorf("interactions = %d, want 200", d.Interactions())
	}
	if got := countsSum[int](d); got != 50 {
		t.Errorf("conservation after steps: %d agents, want 50", got)
	}
}

// TestDenseForceNoDelegate pins the hook: with delegation forbidden, a
// state explosion past the threshold must panic at the moment it would
// have delegated.
func TestDenseForceNoDelegate(t *testing.T) {
	d := NewDense(500, func(int, *rand.Rand) int { return 0 }, explodeRule,
		WithSeed(3), WithDenseThreshold(32))
	d.forceNoDelegate = true
	defer func() {
		if recover() == nil {
			t.Error("no panic despite exploding states with forceNoDelegate set")
		}
	}()
	d.RunTime(40)
}

// TestDenseSamplerMatchesReferenceChain cross-checks the engine's inlined
// participant sampler (heavy/light split, suffix Fenwick tail) against
// the plain multivariateHypergeometric reference chain in hypergeom.go:
// per-class sample means must agree within standard error. This is what
// keeps the documented reference and the shipped sampler from drifting
// apart — a change to either chain's conditioning shows up here.
func TestDenseSamplerMatchesReferenceChain(t *testing.T) {
	counts := []int64{5000, 700, 80, 80, 9, 3, 1}
	var total int64
	for _, c := range counts {
		total += c
	}
	const m, trials = 120, 30000
	q := len(counts)
	r := rand.New(rand.NewPCG(31, 37))
	ref := make([]float64, q)
	dst := make([]int64, q)
	for tr := 0; tr < trials; tr++ {
		multivariateHypergeometric(r, counts, total, m, dst)
		for i, k := range dst {
			ref[i] += float64(k)
		}
	}
	// The engine sampler mutates its configuration, so rebuild per trial
	// from the same multiset (identity rule: states never change).
	idRule := func(a, b int, _ *rand.Rand) (int, int) { return a, b }
	states := make([]int, q)
	for i := range states {
		states[i] = i
	}
	got := make([]float64, q)
	for tr := 0; tr < trials/10; tr++ { // constructor cost bounds the trials
		d := NewDenseFromCounts(states, counts, idRule, WithSeed(uint64(tr)*19+7))
		d.recv = resizeZero(d.recv, len(d.counts))
		d.sampleParticipants(d.rng, d.recv, m)
		for id, k := range d.recv {
			got[d.states[id]] += float64(k)
		}
	}
	for i, c := range counts {
		want := float64(m) * float64(c) / float64(total)
		refMean := ref[i] / trials
		gotMean := got[i] / (trials / 10)
		se := 5*math.Sqrt(want/(trials/10)) + 0.05
		if math.Abs(refMean-want) > se {
			t.Errorf("reference chain class %d: mean %.3f, want %.3f ± %.3f", i, refMean, want, se)
		}
		if math.Abs(gotMean-want) > se {
			t.Errorf("engine sampler class %d: mean %.3f, want %.3f ± %.3f", i, gotMean, want, se)
		}
	}
}

// TestDenseTreeMissOrder pins runs whose rule outputs depend on the
// randomness they draw, so the order in which a serial pass applies
// uncached transitions shows in the trajectory. The golden cases cannot
// see that order: their randomized transitions emit the same output
// multiset whichever way a coin lands. Every transition here misses.
//
//   - slot root leaf: the slot batches' in-place resolve, pair by pair in
//     slot order.
//   - dense root leaf: pairAndApply's row-by-row cell application at test
//     scale.
//   - dense large batch: the same at n = 10⁸, whose batches of about 6300
//     receivers a splitter tree used to serve with a deferred miss flush.
func TestDenseTreeMissOrder(t *testing.T) {
	rule := func(a, b int, r *rand.Rand) (int, int) {
		if r.IntN(3) == 0 {
			return (a + b + r.IntN(4)) % 11, b
		}
		return a, (a + 2*b) % 11
	}
	initial := func(i int, _ *rand.Rand) int { return i % 11 }
	states, counts := make([]int, 11), make([]int64, 11)
	for i := range states {
		states[i], counts[i] = i, 100_000_000/11+int64(i/10)
	}
	for _, tc := range []struct {
		name   string
		build  func() Engine[int]
		run    int64
		digest string
		want   Stats
	}{
		{"slot root leaf", func() Engine[int] {
			return NewBatch(3000, initial, rule, WithSeed(61))
		}, 6 * 3000, "4dc3f5e800b70629aaed14864db2afafbe11e86ee235bd97e2e773b84edaf799",
			Stats{Batches: 517, BatchedInteractions: 18000, RuleCalls: 18000, Compactions: 1}},
		{"dense root leaf", func() Engine[int] {
			return NewDense(3000, initial, rule, WithSeed(61))
		}, 6 * 3000, "bd698fc3640c1944ef3ce0e9b24887f72952777a54508cacc80a7198f059f0ab",
			Stats{Batches: 517, BatchedInteractions: 18000, RuleCalls: 18000, Compactions: 1, PairCells: 17484}},
		{"dense large batch", func() Engine[int] {
			return NewDenseFromCounts(states, counts, rule, WithSeed(61))
		}, 1 << 17, "5e39edad1a778cf76816061bb2f14dc09edfc661dd2192cbd0e17f2d038f3455",
			Stats{Batches: 22, BatchedInteractions: 131072, RuleCalls: 131072, Compactions: 1, PairCells: 2661}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.build()
			e.Run(tc.run)
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if got := stateDigest(t, snap); got != tc.digest {
				t.Errorf("state digest = %s, want %s", got, tc.digest)
			}
			if got := e.Stats(); got != tc.want {
				t.Errorf("Stats() = %#v, want %#v", got, tc.want)
			}
		})
	}
}
