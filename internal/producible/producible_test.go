package producible

import (
	"testing"
	"testing/quick"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/protocol"
)

// coinDoubler is a randomized table used to exercise rate filtering in the
// closure: pairs of state 0 promote to state 1 with rate ½ and to state 2
// with rate ¼; the remaining ¼ is the identity branch.
func coinDoubler() *pop.Compiled[int] {
	return pop.MustCompile(pop.Table[int]{
		{Rec: 0, Sen: 0}: pop.Choose(
			pop.Branch[int]{W: 2, Rec: 1, Sen: 1},
			pop.Branch[int]{W: 1, Rec: 2, Sen: 2},
			pop.Branch[int]{W: 1, Rec: 0, Sen: 0},
		),
	})
}

// Approximate-majority table ids (protocol.AMCompiled, canonical order of
// the opinions −1, 0, 1): X is opinion 1 and Y is −1.
const (
	amY = 0
	amX = 2
)

func TestClosureCounterChain(t *testing.T) {
	const m = 6
	p := CounterChain(m)
	chain := Closure(p, 1, []int{0}, m)
	for i, lam := range chain {
		// Λ^i = {c0..ci}: counting up one level per transition round.
		if len(lam) != i+1 {
			t.Errorf("Λ^%d has %d states, want %d", i, len(lam), i+1)
		}
	}
	if !chain[m][m] {
		t.Errorf("terminated state T=c%d not in Λ^%d", m, m)
	}
}

func TestClosureDepthSaturates(t *testing.T) {
	depth, lam := ClosureDepth(protocol.AMCompiled(), 1, []int{amX, amY})
	if depth != 1 || len(lam) != 3 {
		t.Errorf("ClosureDepth = %d with %d states; want depth 1, 3 states", depth, len(lam))
	}
}

func TestClosureRateFiltering(t *testing.T) {
	p := coinDoubler()
	// With ρ = 0.3 only the rate-0.5 outcome counts: state 2 unreachable.
	_, lam := ClosureDepth(p, 0.3, []int{0})
	if lam[2] {
		t.Error("rate-¼ outcome included at ρ = 0.3")
	}
	if !lam[1] {
		t.Error("rate-½ outcome excluded at ρ = 0.3")
	}
	// With ρ = 0.2 both appear.
	_, lam = ClosureDepth(p, 0.2, []int{0})
	if !lam[2] {
		t.Error("rate-¼ outcome excluded at ρ = 0.2")
	}
}

// TestClosureMonotoneIdempotent: Λ^i ⊆ Λ^(i+1), and recomputing the closure
// from a saturated set is a fixed point (property-based over random m).
func TestClosureMonotoneIdempotent(t *testing.T) {
	p := CounterChain(8)
	f := func(m8 uint8) bool {
		m := int(m8 % 10)
		chain := Closure(p, 1, []int{0}, m)
		for i := 1; i < len(chain); i++ {
			for s := range chain[i-1] {
				if !chain[i][s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDenseConfig(t *testing.T) {
	states, counts := DenseConfig([]int{0, 1}, 0.4, 100)
	if len(states) != 2 || states[0] != 0 || states[1] != 1 {
		t.Fatalf("states = %v, want [0 1]", states)
	}
	if counts[0] != 60 || counts[1] != 40 {
		t.Errorf("counts = %d,%d; want 60,40", counts[0], counts[1])
	}
	defer func() {
		if recover() == nil {
			t.Error("over-dense request did not panic")
		}
	}()
	DenseConfig([]int{0, 1, 2}, 0.5, 10)
}

// TestLemma42ApproxMajority: from a ½/½-dense {X,Y} configuration, all
// states of the 3-state approximate-majority protocol reach a constant
// fraction of n by time 1, for n across two orders of magnitude.
func TestLemma42ApproxMajority(t *testing.T) {
	p := protocol.AMCompiled()
	for _, n := range []int{500, 5000, 50000} {
		states, counts := DenseConfig([]int{1, -1}, 0.5, n)
		rep := CheckLemma42(p, states, counts, 1, 1, 7)
		if rep.MinFraction < 0.02 {
			t.Errorf("n=%d: min density %.4f < 0.02 at time 1", n, rep.MinFraction)
		}
	}
}

// TestLemma42CounterChain: the terminated state of a constant-threshold
// counter protocol reaches Θ(n) count by constant time from the all-c0
// dense configuration — the concrete engine behind Theorem 4.1.
func TestLemma42CounterChain(t *testing.T) {
	const m = 4 // T is 4-producible; agents need 4 interactions each
	p := CounterChain(m)
	for _, n := range []int{1000, 10000} {
		states, counts := DenseConfig([]int{0}, 1, n)
		rep := CheckLemma42(p, states, counts, 1, m, 3)
		if rep.Counts[m] == 0 {
			t.Errorf("n=%d: no terminated agents at time 1", n)
		}
		if rep.MinFraction < 0.005 {
			t.Errorf("n=%d: min density over Λ^m = %.4f < 0.005", n, rep.MinFraction)
		}
	}
}
