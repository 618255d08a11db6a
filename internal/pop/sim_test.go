package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// pair is a trivial state for engine tests.
type pair struct {
	V int
	T int // interaction tally maintained by the rule itself
}

func countRule(rec, sen pair, _ *rand.Rand) (pair, pair) {
	rec.T++
	sen.T++
	return rec, sen
}

func TestNewPanics(t *testing.T) {
	tests := []struct {
		name string
		f    func()
	}{
		{"n too small", func() { New(1, func(int, *rand.Rand) pair { return pair{} }, countRule) }},
		{"nil rule", func() { New(3, func(int, *rand.Rand) pair { return pair{} }, nil) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f()
		})
	}
}

// TestNewRefusesAboveAgentArrayCap: an agent-array engine above
// MaxAgentArray panics naming the cap before it allocates the array or
// builds a single agent — called directly, from an agent slice (of a
// zero-size state, so the slice itself occupies no memory), and when Auto
// picks the sequential backend for WithInteractionCounts from a count
// vector — and a join that would grow a sequential engine past the cap
// panics the same way before it grows the array.
func TestNewRefusesAboveAgentArrayCap(t *testing.T) {
	const n = MaxAgentArray + 1
	initial := func(int, *rand.Rand) pair {
		t.Fatal("initial called above the agent-array cap")
		return pair{}
	}
	unitRule := func(a, b struct{}, _ *rand.Rand) (struct{}, struct{}) { return a, b }
	small := New(10, func(int, *rand.Rand) pair { return pair{} }, countRule)
	for name, fn := range map[string]func(){
		"New": func() { New(n, initial, countRule) },
		"NewEngineFromConfig": func() {
			NewEngineFromConfig(make([]struct{}, n), unitRule, WithBackend(Sequential))
		},
		"NewEngineFromCounts": func() {
			NewEngineFromCounts([]pair{{}}, []int64{n}, countRule, WithInteractionCounts())
		},
		"AddAgents": func() { small.AddAgents(pair{}, MaxAgentArray) },
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			defer func() {
				runtime.ReadMemStats(&after)
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "MaxAgentArray") {
					t.Errorf("panic %q does not name the cap", msg)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("allocated %d bytes before refusing", grew)
				}
			}()
			fn()
		})
	}
	if small.N() != 10 {
		t.Errorf("refused join left %d agents, want 10", small.N())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []pair {
		s := New(10, func(i int, _ *rand.Rand) pair { return pair{V: i} }, countRule, WithSeed(99))
		s.Run(1000)
		return s.AgentStates()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at agent %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	run := func(seed uint64) []pair {
		s := New(10, func(i int, _ *rand.Rand) pair { return pair{V: i} }, countRule, WithSeed(seed))
		s.Run(100)
		return s.AgentStates()
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical executions")
	}
}

func TestTimeAccounting(t *testing.T) {
	const n = 40
	s := New(n, func(int, *rand.Rand) pair { return pair{} }, countRule)
	s.RunTime(3.5)
	if got, want := s.Interactions(), int64(3.5*n); got != want {
		t.Errorf("Interactions() = %d, want %d", got, want)
	}
	if got := s.Time(); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("Time() = %v, want 3.5", got)
	}
}

// TestInteractionConservation: every interaction touches exactly two
// distinct agents, so the rule-maintained tallies sum to 2× interactions
// and match the engine's own per-agent counters.
func TestInteractionConservation(t *testing.T) {
	const n = 25
	s := New(n, func(int, *rand.Rand) pair { return pair{} }, countRule,
		WithSeed(5), WithInteractionCounts())
	s.Run(5000)
	var total int64
	for i := 0; i < n; i++ {
		total += s.InteractionCount(i)
		if got, want := int64(s.Agent(i).T), s.InteractionCount(i); got != want {
			t.Fatalf("agent %d: rule tally %d != engine count %d", i, got, want)
		}
	}
	if total != 2*s.Interactions() {
		t.Errorf("sum of per-agent counts = %d, want %d", total, 2*s.Interactions())
	}
}

// TestDistinctPartners: the scheduler never pairs an agent with itself.
// With n = 2 every interaction must involve both agents.
func TestDistinctPartners(t *testing.T) {
	s := New(2, func(int, *rand.Rand) pair { return pair{} }, countRule, WithInteractionCounts())
	s.Run(100)
	if s.InteractionCount(0) != 100 || s.InteractionCount(1) != 100 {
		t.Errorf("n=2 counts = %d,%d; want 100,100",
			s.InteractionCount(0), s.InteractionCount(1))
	}
}

// TestSchedulerUniformity: over many interactions each agent participates
// in ≈ 2/n of them (within 5 standard deviations).
func TestSchedulerUniformity(t *testing.T) {
	const n, steps = 16, 200000
	s := New(n, func(int, *rand.Rand) pair { return pair{} }, countRule,
		WithSeed(8), WithInteractionCounts())
	s.Run(steps)
	mean := 2.0 * steps / n
	sd := math.Sqrt(steps * (2.0 / n) * (1 - 2.0/n))
	for i := 0; i < n; i++ {
		if d := math.Abs(float64(s.InteractionCount(i)) - mean); d > 5*sd {
			t.Errorf("agent %d count %d deviates from mean %.0f by %.0f > 5σ=%.0f",
				i, s.InteractionCount(i), mean, d, 5*sd)
		}
	}
}

func TestStateTracking(t *testing.T) {
	s := New(4, func(i int, _ *rand.Rand) pair { return pair{V: i} }, countRule,
		WithSeed(3), WithStateTracking())
	if got := s.DistinctStates(); got != 4 {
		t.Fatalf("initial DistinctStates() = %d, want 4", got)
	}
	s.Run(50)
	if got := s.DistinctStates(); got <= 4 {
		t.Errorf("DistinctStates() = %d after 50 tally-increment steps, want > 4", got)
	}
}

func TestCountsAndPredicates(t *testing.T) {
	s := NewEngineFromConfig([]pair{{V: 1}, {V: 1}, {V: 2}}, countRule, WithBackend(Sequential))
	c := s.Counts()
	if c[pair{V: 1}] != 2 || c[pair{V: 2}] != 1 {
		t.Errorf("Counts() = %v", c)
	}
	if got := s.Count(func(p pair) bool { return p.V == 1 }); got != 2 {
		t.Errorf("Count(V==1) = %d, want 2", got)
	}
	if s.All(func(p pair) bool { return p.V == 1 }) {
		t.Error("All(V==1) = true, want false")
	}
	if !s.Any(func(p pair) bool { return p.V == 2 }) {
		t.Error("Any(V==2) = false, want true")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(10, func(int, *rand.Rand) pair { return pair{} }, countRule, WithSeed(1))
	ok, at := s.RunUntil(func(s Engine[pair]) bool { return s.Time() >= 5 }, 1, 100)
	if !ok || at < 5 {
		t.Errorf("RunUntil = %v, %v; want true at time >= 5", ok, at)
	}
	ok, _ = s.RunUntil(func(s Engine[pair]) bool { return false }, 1, 3)
	if ok {
		t.Error("RunUntil returned true for an unsatisfiable predicate")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := New(3, func(i int, _ *rand.Rand) pair { return pair{V: i} }, countRule)
	snap := s.AgentStates()
	snap[0].V = 999
	if s.Agent(0).V == 999 {
		t.Error("mutating a snapshot mutated the simulation")
	}
}
