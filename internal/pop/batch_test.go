package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Toy protocols used by the white-box batch tests. (Tests inside package
// pop cannot import the real protocol packages — they would form an import
// cycle — so the cross-protocol equivalence suite lives in equiv_test.go,
// package pop_test.)

// maxRule is a deterministic two-way epidemic: both agents adopt the max.
func maxRule(a, b int, _ *rand.Rand) (int, int) {
	m := max(a, b)
	return m, m
}

// coinRule consumes randomness on every invocation.
func coinRule(a, b int, r *rand.Rand) (int, int) {
	if r.IntN(2) == 0 {
		return a, b
	}
	return b, a
}

// amRule is the 3-state approximate-majority protocol on {-1: B, 0: U, 1: A}.
func amRule(rec, sen int, _ *rand.Rand) (int, int) {
	switch {
	case rec == 1 && sen == -1:
		return 0, -1
	case rec == -1 && sen == 1:
		return 0, 1
	case rec == 0 && sen != 0:
		return sen, sen
	}
	return rec, sen
}

// explodeRule mints a fresh state per interaction: the receiver adopts
// 1 + the largest value either agent has seen, so the number of live
// states grows without bound until the fallback threshold trips.
func explodeRule(a, b int, _ *rand.Rand) (int, int) {
	return max(a, b) + 1, b
}

func countsSum[S comparable](e Engine[S]) int {
	n := 0
	for _, c := range e.Counts() {
		n += c
	}
	return n
}

// TestBatchConservationEveryBatch asserts exact agent-count conservation
// after every single batch, via the test hook that fires at batch commit.
func TestBatchConservationEveryBatch(t *testing.T) {
	const n = 2000
	b := NewBatch(n, func(i int, _ *rand.Rand) int { return i % 7 }, amRule, WithSeed(11))
	batches := 0
	b.batchEvents = func(ell int, collided bool) {
		batches++
		if got := countsSum[int](b); got != n {
			t.Fatalf("after batch %d (ell=%d, collided=%v): %d agents, want %d",
				batches, ell, collided, got, n)
		}
		if b.total != int64(n) {
			t.Fatalf("running total %d, want %d", b.total, n)
		}
	}
	b.RunTime(30)
	if batches == 0 {
		t.Fatal("no batches executed")
	}
}

// TestBatchRunExactInteractionCount verifies Run(k) executes exactly k
// interactions for awkward k, including collision steps at batch ends.
func TestBatchRunExactInteractionCount(t *testing.T) {
	b := NewBatch(997, func(i int, _ *rand.Rand) int { return i % 3 }, amRule, WithSeed(5))
	total := int64(0)
	for _, k := range []int64{1, 2, 3, 17, 997, 12345, 7} {
		b.Run(k)
		total += k
		if b.Interactions() != total {
			t.Fatalf("after Run(%d): %d interactions, want %d", k, b.Interactions(), total)
		}
	}
}

// TestBatchRunLengths sanity-checks the collision-free run-length sampler:
// the mean batch length for the birthday process is Θ(√n).
func TestBatchRunLengths(t *testing.T) {
	const n = 10000
	b := NewBatch(n, func(int, *rand.Rand) int { return 0 }, amRule, WithSeed(2))
	var sum, count float64
	b.batchEvents = func(ell int, collided bool) {
		if collided {
			sum += float64(ell)
			count++
		}
	}
	b.RunTime(100)
	if count < 100 {
		t.Fatalf("only %v collision-terminated batches", count)
	}
	mean := sum / count
	root := math.Sqrt(n)
	if mean < 0.3*root || mean > 3*root {
		t.Errorf("mean collision-free run %.1f, want Θ(√n) ≈ %.1f", mean, root)
	}
}

// TestBatchFallbackTriggers: a state-exploding protocol must trip the
// live-state threshold and switch to the materialized sequential mode.
func TestBatchFallbackTriggers(t *testing.T) {
	b := NewBatch(500, func(int, *rand.Rand) int { return 0 }, explodeRule,
		WithSeed(3), WithBatchThreshold(32))
	b.RunTime(40)
	st := b.Stats()
	if st.Fallbacks == 0 {
		t.Fatalf("no fallback despite exploding states (live=%d)", b.LiveStates())
	}
	if st.SeqInteractions == 0 {
		t.Error("fallback mode executed no interactions")
	}
	if got := countsSum[int](b); got != 500 {
		t.Errorf("conservation after fallback: %d agents, want 500", got)
	}
}

// TestBatchFallbackReentry: a population seeded with n distinct values
// exceeds the threshold immediately, but the max-epidemic collapses it to
// one live state, after which the engine must return to batch mode.
func TestBatchFallbackReentry(t *testing.T) {
	const n = 500
	b := NewBatch(n, func(i int, _ *rand.Rand) int { return i }, maxRule,
		WithSeed(7), WithBatchThreshold(64))
	b.RunTime(80)
	st := b.Stats()
	if st.Fallbacks == 0 {
		t.Fatal("expected an immediate fallback with n distinct initial states")
	}
	if st.Reentries == 0 {
		t.Fatalf("no re-entry after collapse (live=%d)", b.LiveStates())
	}
	if !b.All(func(v int) bool { return v == n-1 }) {
		t.Error("epidemic did not converge to the maximum")
	}
	if st.Batches == 0 {
		t.Error("no batches ran after re-entry")
	}
}

// TestBatchFallbackCap: above MaxAgentArray agents the slot batches keep
// batching past the live-state threshold instead of materializing an agent
// array (2²⁷ int agents would take 1 GiB), while the same configuration
// at a small n still falls back.
func TestBatchFallbackCap(t *testing.T) {
	states := []int{-1, 0, 1}
	for _, tc := range []struct {
		n        int64
		fallback bool
	}{{MaxAgentArray * 2, false}, {1 << 12, true}} {
		b := NewBatchFromCounts(states, []int64{tc.n / 4, tc.n / 4, tc.n / 2}, amRule,
			WithSeed(5), WithBatchThreshold(2))
		b.Run(1 << 20)
		st := b.Stats()
		if got := st.Fallbacks > 0; got != tc.fallback {
			t.Errorf("n=%d: %d fallbacks, want fallback=%v", tc.n, st.Fallbacks, tc.fallback)
		}
		if !tc.fallback && (st.BatchedInteractions != 1<<20 || b.LiveStates() != 3) {
			t.Errorf("n=%d: %d batched interactions over %d live states, want %d over 3",
				tc.n, st.BatchedInteractions, b.LiveStates(), 1<<20)
		}
	}
}

// TestFallbackJoinAboveCap: a join that would grow the slot batches'
// agent-array fallback past MaxAgentArray leaves the fallback instead of
// allocating, and the engine keeps batching at the new size.
func TestFallbackJoinAboveCap(t *testing.T) {
	b := NewBatch(600, func(int, *rand.Rand) int { return 0 }, explodeRule, WithSeed(5), WithBatchThreshold(16))
	b.Run(20 * 600)
	if !b.seqMode {
		t.Fatal("setup: the engine is not in its fallback")
	}
	zeros := b.Count(func(s int) bool { return s == 0 })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.AddAgents(0, MaxAgentArray)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("the join allocated %d bytes", grew)
	}
	const n = 600 + MaxAgentArray
	if b.seqMode || b.N() != n || countsSum[int](b) != n || b.Count(func(s int) bool { return s == 0 }) != zeros+MaxAgentArray {
		t.Fatalf("after the join: fallback=%v, N=%d, Σcounts=%d, want batch mode with %d agents",
			b.seqMode, b.N(), countsSum[int](b), n)
	}
	st := b.Stats()
	b.Run(1 << 16)
	if got := b.Stats(); got.Fallbacks != st.Fallbacks || got.BatchedInteractions != st.BatchedInteractions+1<<16 || countsSum[int](b) != n {
		t.Errorf("after the join the engine ran %d of %d interactions batched, fell back %d times, holds %d agents",
			got.BatchedInteractions-st.BatchedInteractions, 1<<16, got.Fallbacks-st.Fallbacks, countsSum[int](b))
	}
}

// TestBatchDeterminism: the same seed must reproduce the identical
// configuration trajectory, checkpoint by checkpoint.
func TestBatchDeterminism(t *testing.T) {
	mk := func() *BatchSim[int] {
		return NewBatch(5000, func(i int, _ *rand.Rand) int { return i % 5 }, amRule, WithSeed(9))
	}
	b1, b2 := mk(), mk()
	for i := 0; i < 10; i++ {
		b1.RunTime(2)
		b2.RunTime(2)
		if b1.Interactions() != b2.Interactions() {
			t.Fatalf("interaction counts diverged: %d vs %d", b1.Interactions(), b2.Interactions())
		}
		if !reflect.DeepEqual(b1.Counts(), b2.Counts()) {
			t.Fatalf("checkpoint %d: configurations diverged", i)
		}
	}
}

// TestBatchCachePolicy: transitions that consume randomness must never be
// served from the deterministic-transition cache; deterministic ones must.
func TestBatchCachePolicy(t *testing.T) {
	rnd := NewBatch(3000, func(i int, _ *rand.Rand) int { return i % 3 }, coinRule, WithSeed(4))
	rnd.RunTime(10)
	if hits := rnd.Stats().CacheHits; hits != 0 {
		t.Errorf("randomized rule served %d cached transitions", hits)
	}
	det := NewBatch(3000, func(i int, _ *rand.Rand) int { return i % 3 }, amRule, WithSeed(4))
	det.RunTime(10)
	st := det.Stats()
	if st.CacheHits == 0 {
		t.Error("deterministic rule never hit the cache")
	}
	if st.CacheHits < st.RuleCalls {
		t.Errorf("expected cache hits (%d) to dominate rule calls (%d)", st.CacheHits, st.RuleCalls)
	}
}

// TestBatchDistinctStates: on a protocol that can only shuffle its initial
// values (max-epidemic), both engines must report exactly the initial
// distinct-state count.
func TestBatchDistinctStates(t *testing.T) {
	const k = 37
	initial := func(i int, _ *rand.Rand) int { return i % k }
	b := NewBatch(2000, initial, maxRule, WithSeed(6))
	b.RunTime(30)
	if got := b.DistinctStates(); got != k {
		t.Errorf("batch DistinctStates = %d, want %d", got, k)
	}
	s := New(2000, initial, maxRule, WithSeed(6), WithStateTracking())
	s.RunTime(30)
	if got := s.DistinctStates(); got != k {
		t.Errorf("sequential DistinctStates = %d, want %d", got, k)
	}
}

// TestRunUntilBoundaryParity: both engines share RunUntil's check-boundary
// semantics — the predicate is evaluated at the same parallel-time
// checkpoints and the reported detection time is the same boundary.
func TestRunUntilBoundaryParity(t *testing.T) {
	const n = 1000
	mk := map[string]Engine[int]{
		"seq":   New(n, func(int, *rand.Rand) int { return 0 }, amRule, WithSeed(1)),
		"batch": NewBatch(n, func(int, *rand.Rand) int { return 0 }, amRule, WithSeed(1)),
	}
	for name, e := range mk {
		var checks []float64
		pred := func(e Engine[int]) bool {
			checks = append(checks, e.Time())
			return e.Time() >= 3.5
		}
		ok, at := e.RunUntil(pred, 1.0, 100)
		if !ok {
			t.Fatalf("%s: predicate never held", name)
		}
		want := []float64{0, 1, 2, 3, 4}
		if !reflect.DeepEqual(checks, want) {
			t.Errorf("%s: predicate evaluated at %v, want %v", name, checks, want)
		}
		if at != 4 {
			t.Errorf("%s: detection time %v, want 4", name, at)
		}
	}
}

// TestRunUntilSubInteractionCheck: a check interval below one interaction
// (checkEvery·n < 1) still advances each check by one interaction on
// every backend, so the run reaches maxTime instead of spinning at time 0.
func TestRunUntilSubInteractionCheck(t *testing.T) {
	for _, be := range allBackends {
		e := NewEngineFromCounts([]int{0, 1}, []int64{2, 1}, amRule, WithSeed(1), WithBackend(be))
		within(t, 10*time.Second, func() {
			if ok, at := e.RunUntil(func(Engine[int]) bool { return false }, 0.25, 2); ok || at != 2 || e.Interactions() != 6 {
				t.Errorf("%v: RunUntil = %v at %v after %d interactions, want false at 2 after 6", be, ok, at, e.Interactions())
			}
		})
	}
}

// TestBatchRejectsInteractionCounts pins the documented panic.
func TestBatchRejectsInteractionCounts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBatch with WithInteractionCounts did not panic")
		}
	}()
	NewBatch(10, func(int, *rand.Rand) int { return 0 }, amRule, WithInteractionCounts())
}

// TestBatchCompaction: an exactcount-style protocol that cycles through
// many short-lived states must keep its interning tables near the live
// count via compaction, and stay correct while doing so.
func TestBatchCompaction(t *testing.T) {
	b := NewBatch(4000, func(i int, _ *rand.Rand) int { return i % 2 },
		func(a, c int, _ *rand.Rand) (int, int) {
			// The receiver walks a long cycle: states keep dying behind
			// the walk front, so the interning tables fill with dead ids.
			return (a + 2) % 100000, c
		}, WithSeed(8))
	b.RunTime(1000)
	if st := b.Stats(); st.Compactions <= 1 { // construction itself compacts once
		t.Error("no compactions despite state churn")
	}
	if got := countsSum[int](b); got != 4000 {
		t.Errorf("conservation after compactions: %d agents, want 4000", got)
	}
	if b.DistinctStates() < 1000 {
		t.Errorf("DistinctStates = %d, expected a long state cycle", b.DistinctStates())
	}
}

// BenchmarkSlotBatch times slot batches of about 12 600 slots at
// n = 10⁸ under the modular rule (a, b) → ((a+b+1) mod q, b) over q
// uniform states. At q = 300 the transition
// cache serves most pairs; at q = 5000 most pairs miss it and call the
// rule. It reports ns per interaction.
func BenchmarkSlotBatch(b *testing.B) {
	const n = 100_000_000
	for _, q := range []int{300, 5000} {
		rule := func(a, s int, _ *rand.Rand) (int, int) { return (a + s + 1) % q, s }
		states, counts := make([]int, q), make([]int64, q)
		for i := range states {
			states[i], counts[i] = i, n/int64(q)
		}
		counts[0] += n % int64(q)
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			e := NewBatchFromCounts(states, counts, rule, WithSeed(1))
			e.Run(1 << 20) // intern the states and warm the cache and scratch
			start := e.Interactions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.slotBatch(1 << 20)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Interactions()-start), "ns/interaction")
		})
	}
}

// BenchmarkSmallEngine times what a small engine costs end to end:
// building approximate majority (amTable, rule closure, no declared-table
// bypass) from B/U/A = 90/60/150 and running 3000 interactions, on each
// backend. Construction dominates at this size, so it tracks every
// per-engine allocation, the transition cache included.
func BenchmarkSmallEngine(b *testing.B) {
	am := MustCompile(amTable())
	init := []int64{90, 60, 150}
	for _, be := range []Backend{Sequential, Batched, Dense} {
		b.Run(be.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := NewEngineFromCounts(am.States(), init, am.Rule(), WithSeed(uint64(i)), WithBackend(be))
				e.Run(3000)
			}
		})
	}
}
