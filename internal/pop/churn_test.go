// Churn (dynamic population) tests: AddAgents/RemoveAgents across all
// three backends — exact conservation, per-segment parallel-time
// accounting, churn while delegated, and the n >= 2 floor shared by every
// constructor and by RemoveAgents. TestEngineLawOracle's churn cases check
// the removal law.
package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// allBackends enumerates the concrete backends for churn tests.
var allBackends = []Backend{Sequential, Batched, Dense}

// churnEngine builds an engine of the requested backend from a counts
// multiset (the only construction every backend shares).
func churnEngine(be Backend, states []int, counts []int64, rule Rule[int], seed uint64) Engine[int] {
	return NewEngineFromCounts(states, counts, rule, WithSeed(seed), WithBackend(be))
}

// TestChurnConservation interleaves joins, leaves and runs on every
// backend and asserts the configuration always sums to the tracked
// population size.
func TestChurnConservation(t *testing.T) {
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			e := churnEngine(be, []int{0, 1, 2}, []int64{400, 350, 250}, amRule, 7)
			n := 1000
			check := func(step string) {
				t.Helper()
				if e.N() != n {
					t.Fatalf("%s: N() = %d, want %d", step, e.N(), n)
				}
				if got := countsSum[int](e); got != n {
					t.Fatalf("%s: counts sum to %d, want %d", step, got, n)
				}
			}
			ops := []struct {
				name  string
				apply func()
			}{
				{"warmup run", func() { e.Run(5000) }},
				{"join 300", func() { e.AddAgents(1, 300); n += 300 }},
				{"run after join", func() { e.Run(4000) }},
				{"leave 550", func() { e.RemoveAgents(550); n -= 550 }},
				{"run after leave", func() { e.Run(4000) }},
				{"join 0 (no-op)", func() { e.AddAgents(2, 0) }},
				{"leave 0 (no-op)", func() { e.RemoveAgents(0) }},
				{"heavy leave", func() { e.RemoveAgents(700); n -= 700 }},
				{"run small", func() { e.Run(500) }},
				{"regrow", func() { e.AddAgents(0, 2000); n += 2000 }},
				{"final run", func() { e.Run(8000) }},
			}
			for _, op := range ops {
				op.apply()
				check(op.name)
			}
		})
	}
}

// TestChurnSegmentedTime pins the per-segment parallel-time definition
// Σ_j I_j/n_j on every backend: churn events must freeze the accumulated
// time and switch the denominator.
func TestChurnSegmentedTime(t *testing.T) {
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			e := churnEngine(be, []int{0, 1}, []int64{50, 50}, amRule, 3)
			e.Run(1000) // 1000/100 = 10
			e.AddAgents(1, 100)
			if got := e.Time(); math.Abs(got-10) > 1e-9 {
				t.Fatalf("after join: Time() = %g, want 10 (join must not rescale history)", got)
			}
			e.Run(2000) // + 2000/200 = 10
			e.RemoveAgents(150)
			e.Run(500) // + 500/50 = 10
			if got, want := e.Time(), 30.0; math.Abs(got-want) > 1e-9 {
				t.Errorf("segmented time = %g, want %g", got, want)
			}
			if got := e.Interactions(); got != 3500 {
				t.Errorf("interactions = %d, want 3500", got)
			}
			// RunTime must use the current population size.
			e.RunTime(4)
			if got := e.Interactions(); got != 3500+4*50 {
				t.Errorf("RunTime after churn ran %d interactions total, want %d", got, 3500+4*50)
			}
		})
	}
}

// TestChurnMidDelegation: joins and leaves while a DenseSim is delegated
// to slot batches must round-trip — the sizes stay consistent
// through the delegated phase and across re-entry, and the protocol's
// outcome (a max-epidemic) is still correct afterwards.
func TestChurnMidDelegation(t *testing.T) {
	const n0 = 600
	d := NewDense(n0, func(i int, _ *rand.Rand) int { return i }, maxRule,
		WithSeed(13), WithDenseThreshold(48))
	d.Run(2 * n0) // n distinct initial states: delegates immediately
	if !d.Delegated() {
		t.Fatal("engine did not delegate with n distinct initial states")
	}
	n := n0
	d.AddAgents(n0+5, 200) // a fresh, larger maximum joins mid-delegation
	n += 200
	d.RemoveAgents(350)
	n -= 350
	if d.N() != n {
		t.Fatalf("mid-delegation size %d, want %d", d.N(), n)
	}
	if got := countsSum[int](d); got != n {
		t.Fatalf("mid-delegation conservation: %d agents, want %d", got, n)
	}
	d.RunTime(120) // collapse to one live state → re-entry
	if d.Delegated() {
		t.Fatal("still delegated after the configuration collapsed")
	}
	if d.Stats().DenseReentries == 0 {
		t.Fatal("never re-entered dense mode")
	}
	if got := countsSum[int](d); got != n {
		t.Fatalf("post-re-entry conservation: %d agents, want %d", got, n)
	}
	// The joined maximum survives removal w.h.p. (350 of 800 removed, 200
	// carriers) and must have propagated everywhere.
	if !d.All(func(v int) bool { return v == n0+5 }) {
		t.Errorf("epidemic did not converge to the joined maximum; counts = %v", d.Counts())
	}
	// Churn again after re-entry: dense-mode count edits.
	d.AddAgents(0, 100)
	n += 100
	d.RunTime(5)
	if got := countsSum[int](d); got != n {
		t.Errorf("post-re-entry churn conservation: %d agents, want %d", got, n)
	}
}

// TestChurnSeqFallbackBatch: joins and leaves while a BatchSim is in its
// materialized sequential fallback must operate on the agent array and
// survive re-entry into batch mode.
func TestChurnSeqFallbackBatch(t *testing.T) {
	const n0 = 500
	b := NewBatch(n0, func(i int, _ *rand.Rand) int { return i }, maxRule,
		WithSeed(5), WithBatchThreshold(32))
	b.Run(int64(2 * n0)) // n distinct states: falls back to the agent array
	if !b.seqMode {
		t.Fatal("engine did not fall back with n distinct initial states")
	}
	n := n0
	b.AddAgents(n0+9, 100)
	n += 100
	b.RemoveAgents(250)
	n -= 250
	if b.N() != n || len(b.agents) != n {
		t.Fatalf("mid-fallback sizes: N %d, agents %d, want %d", b.N(), len(b.agents), n)
	}
	b.RunTime(100) // collapse → re-entry recounts from the agent array
	if b.seqMode {
		t.Fatal("still in sequential fallback after collapse")
	}
	if got := countsSum[int](b); got != n {
		t.Fatalf("post-re-entry conservation: %d agents, want %d", got, n)
	}
	if !b.All(func(v int) bool { return v == n0+9 }) {
		t.Errorf("epidemic did not converge to the joined maximum; counts = %v", b.Counts())
	}
}

// TestChurnStateTracking: on the sequential engine, joins must register
// in the distinct-state set and removals must keep per-agent interaction
// counts aligned with their agents.
func TestChurnStateTracking(t *testing.T) {
	s := New(100, func(int, *rand.Rand) int { return 0 }, amRule,
		WithSeed(9), WithStateTracking(), WithInteractionCounts())
	s.Run(200)
	s.AddAgents(41, 20) // a state the run cannot produce
	if _, ok := s.seen[41]; !ok {
		t.Error("AddAgents did not register the joined state with state tracking")
	}
	if len(s.icounts) != 120 {
		t.Fatalf("icounts length %d after join, want 120", len(s.icounts))
	}
	s.RemoveAgents(50)
	if len(s.icounts) != len(s.agents) {
		t.Fatalf("icounts length %d diverged from %d agents after removal", len(s.icounts), len(s.agents))
	}
	s.Run(200)
	if s.MaxInteractionCount() == 0 {
		t.Error("interaction counting broke across churn")
	}
}

// TestRemoveAgentsFloor: every backend must refuse to shrink the
// population below 2, and reject negative churn counts.
func TestRemoveAgentsFloor(t *testing.T) {
	for _, be := range allBackends {
		for name, k := range map[string]int{"below two": 3, "negative": -1} {
			t.Run(be.String()+"/"+name, func(t *testing.T) {
				e := churnEngine(be, []int{0, 1}, []int64{2, 2}, amRule, 1)
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("RemoveAgents(%d) on n=4 did not panic", k)
					}
					if !strings.Contains(fmt.Sprint(r), "RemoveAgents") {
						t.Errorf("panic %q does not name RemoveAgents", r)
					}
				}()
				e.RemoveAgents(k)
			})
		}
		// Shrinking exactly to the floor is allowed.
		e := churnEngine(be, []int{0, 1}, []int64{2, 2}, amRule, 1)
		e.RemoveAgents(2)
		if e.N() != 2 {
			t.Errorf("%v: N() = %d after shrinking to the floor, want 2", be, e.N())
		}
		e.Run(10) // n=2 must still step (the DenseSim n=1 panic regression)
	}
}

// TestConstructorsRejectTinyPopulations: every constructor shares the
// same n >= 2 validation and message.
func TestConstructorsRejectTinyPopulations(t *testing.T) {
	init := func(int, *rand.Rand) int { return 0 }
	cases := map[string]func(n int){
		"New":      func(n int) { New(n, init, amRule) },
		"NewBatch": func(n int) { NewBatch(n, init, amRule) },
		"NewDense": func(n int) { NewDense(n, init, amRule) },
		"NewBatchFromCounts": func(n int) {
			NewBatchFromCounts([]int{0}, []int64{int64(n)}, amRule)
		},
		"NewDenseFromCounts": func(n int) {
			NewDenseFromCounts([]int{0}, []int64{int64(n)}, amRule)
		},
		"NewEngineFromCounts": func(n int) {
			NewEngineFromCounts([]int{0}, []int64{int64(n)}, amRule)
		},
		"NewEngineFromCounts/seq": func(n int) {
			NewEngineFromCounts([]int{0}, []int64{int64(n)}, amRule, WithBackend(Sequential))
		},
	}
	for name, mk := range cases {
		for _, n := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s with n=%d did not panic", name, n)
					}
					if !strings.Contains(fmt.Sprint(r), "pairwise scheduler needs two distinct agents") {
						t.Errorf("panic %q is not the shared population-size message", r)
					}
				}()
				mk(n)
			})
		}
	}
}

// TestChurnDeterminism: for a fixed seed, a churned run reproduces its
// configuration trajectory exactly on every backend.
func TestChurnDeterminism(t *testing.T) {
	for _, be := range allBackends {
		run := func() map[int]int {
			e := churnEngine(be, []int{0, 1, 2}, []int64{500, 300, 200}, amRule, 99)
			e.Run(3000)
			e.AddAgents(1, 250)
			e.Run(3000)
			e.RemoveAgents(400)
			e.Run(3000)
			return e.Counts()
		}
		a, b := run(), run()
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%v: churned runs with the same seed diverged: %v vs %v", be, a, b)
				break
			}
		}
	}
}
