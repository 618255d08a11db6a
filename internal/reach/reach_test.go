package reach

import (
	"testing"

	"github.com/popsim/popsize/internal/producible"
	"github.com/popsim/popsize/internal/protocol"
)

// Approximate-majority table ids (protocol.AMCompiled, canonical order of
// the opinions −1, 0, 1): X is opinion 1, Y is −1, B the blank 0.
const (
	amY = 0
	amB = 1
	amX = 2
)

// am is the configuration with x X agents, y Y agents and b blanks.
func am(x, y, b int) Config {
	c := make(Config, 3)
	c[amX], c[amY], c[amB] = x, y, b
	return c
}

// amKeys returns the keys of the given (x, y, b) configurations.
func amKeys(xyb ...[3]int) []string {
	out := make([]string, len(xyb))
	for i, v := range xyb {
		out[i] = am(v[0], v[1], v[2]).Key()
	}
	return out
}

func TestSuccessorsApproxMajority(t *testing.T) {
	p := protocol.AMCompiled()
	// (1 X, 1 Y, 0 B): the only transitions blank the X or the Y.
	succ := Successors(p, am(1, 1, 0))
	if len(succ) != 2 {
		t.Fatalf("successors = %v, want 2", succ)
	}
	want := map[string]bool{}
	for _, k := range amKeys([3]int{1, 0, 1}, [3]int{0, 1, 1}) {
		want[k] = true
	}
	for _, s := range succ {
		if !want[s.Key()] {
			t.Errorf("unexpected successor %v", s)
		}
	}
}

func TestReachableApproxMajorityTiny(t *testing.T) {
	p := protocol.AMCompiled()
	set, trunc := Reachable(p, am(2, 1, 0), 1000)
	if trunc {
		t.Fatal("tiny configuration space truncated")
	}
	// From (2,1,0): reachable are (2,1,0), (2,0,1), (1,1,1), (3,0,0),
	// (1,0,2), (0,1,2), (2,0,1)→…; enumerate and check key members.
	for _, k := range amKeys([3]int{2, 1, 0}, [3]int{2, 0, 1}, [3]int{1, 1, 1}, [3]int{3, 0, 0}) {
		if _, ok := set[k]; !ok {
			t.Errorf("expected %s reachable, set = %v", k, keys(set))
		}
	}
	// The *wrong* verdict all-Y is also reachable from (2,1,0): an X
	// meeting a Y blanks out, and blanks adopt Y. Approximate majority is correct
	// only with high probability — the minority verdict stays reachable,
	// which is exactly what stable correctness distinguishes.
	if _, ok := set[am(0, 3, 0).Key()]; !ok {
		t.Error("all-Y verdict should be reachable from (2,1,0)")
	}
}

func TestSilent(t *testing.T) {
	p := protocol.AMCompiled()
	tests := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"all X", am(3, 0, 0), true},
		{"X and blank", am(2, 0, 1), false}, // B,X → X,X applies
		{"X vs Y", am(1, 1, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Silent(p, tt.cfg); got != tt.want {
				t.Errorf("Silent(%v) = %v, want %v", tt.cfg, got, tt.want)
			}
		})
	}
}

// TestStablyCorrectMajority: from a pure-X configuration the "output is X"
// predicate is stable; from a mixed configuration it is not (approximate
// majority can be wrong — it is only w.h.p. correct, which is exactly what
// stable correctness distinguishes).
func TestStablyCorrectMajority(t *testing.T) {
	p := protocol.AMCompiled()
	xWins := func(c Config) bool { return c[amY] == 0 && c[amB] == 0 }

	stable, trunc := StablyCorrect(p, am(4, 0, 0), xWins, 10000)
	if !stable || trunc {
		t.Errorf("pure-X not stably correct: stable=%v trunc=%v", stable, trunc)
	}
	stable, _ = StablyCorrect(p, am(3, 1, 0), xWins, 10000)
	if stable {
		t.Error("mixed configuration reported stably correct")
	}
	// But X=3,Y=1 CAN reach the all-X verdict.
	found, _ := CanReach(p, am(3, 1, 0), xWins, 10000)
	if !found {
		t.Error("majority-X verdict unreachable from (3,1,0)")
	}
}

// TestCounterChainTermination: with n = 2 the counter chain is fully
// synchronous — the reachable set is exactly the diagonal chain and the
// terminated configuration is silent.
func TestCounterChainTermination(t *testing.T) {
	const m = 3
	p := producible.CounterChain(m)
	start := make(Config, m+1)
	start[0] = 2
	set, trunc := Reachable(p, start, 100)
	if trunc || len(set) != m+1 {
		t.Fatalf("reachable = %v (trunc=%v), want the %d-element diagonal chain", keys(set), trunc, m+1)
	}
	terminal := make(Config, m+1)
	terminal[m] = 2
	if !Silent(p, terminal) {
		t.Error("terminated configuration not silent")
	}
	found, _ := CanReach(p, start, func(c Config) bool { return c[m] > 0 }, 100)
	if !found {
		t.Error("terminated state unreachable")
	}
}

// TestReachabilityRefinesProducibility: everything reachable is built from
// producible states (the closure over-approximates; BFS decides exactly).
func TestReachabilityRefinesProducibility(t *testing.T) {
	p := protocol.AMCompiled()
	start := am(2, 2, 0)
	_, lam := producible.ClosureDepth(p, 1, []int{amX, amY})
	set, _ := Reachable(p, start, 10000)
	for _, cfg := range set {
		for s, count := range cfg {
			if count > 0 && !lam[s] {
				t.Fatalf("reachable config %v contains non-producible state %d", cfg, s)
			}
		}
	}
}

func TestTruncation(t *testing.T) {
	p := protocol.AMCompiled()
	// A larger population has a bigger space; a limit of 3 must truncate.
	start := am(5, 5, 0)
	_, trunc := Reachable(p, start, 3)
	if !trunc {
		t.Error("limit 3 did not truncate")
	}
}

func keys(m map[string]Config) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
