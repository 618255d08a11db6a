package compose

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/popsim/popsize/internal/pop"
)

// tracker is a downstream state that records its lifecycle for testing.
type tracker struct {
	Inited   bool
	Stages   uint16 // number of OnStage calls received
	Resets   uint16
	LastS    uint8
	Interact uint32
}

func trackerDownstream() Downstream[tracker] {
	return Downstream[tracker]{
		Init: func(_ int, _ *rand.Rand) tracker { return tracker{Inited: true} },
		Transition: func(rec, sen tracker, _, sEst int, _ *rand.Rand) (tracker, tracker) {
			rec.Interact++
			sen.Interact++
			rec.LastS = uint8(sEst)
			sen.LastS = uint8(sEst)
			return rec, sen
		},
		OnStage: func(d tracker, _, _ int, _ *rand.Rand) tracker { d.Stages++; return d },
		Reset:   func(d tracker, _ *rand.Rand) tracker { return tracker{Inited: true, Resets: d.Resets + 1} },
		Stages:  func(sEst int) int { return 3 },
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{F: 0}, trackerDownstream()); err == nil {
		t.Error("F=0 accepted")
	}
	d := trackerDownstream()
	d.Reset = nil
	if _, err := New(Config{F: 4}, d); err == nil {
		t.Error("nil hook accepted")
	}
}

// TestEstimateRestart: an agent that learns a larger weak estimate resets
// stage, counter, and downstream state via Reset.
func TestEstimateRestart(t *testing.T) {
	p := MustNew(Config{F: 8}, trackerDownstream())
	r := rand.New(rand.NewPCG(1, 2))
	low := State[tracker]{S: 2, C: 9, Stage: 2, Done: true, D: tracker{Inited: true, Stages: 2}}
	high := State[tracker]{S: 9, D: tracker{Inited: true}}
	gotLow, _ := p.Rule(low, high, r)
	if gotLow.S != 9 {
		t.Fatalf("did not adopt larger estimate: %+v", gotLow)
	}
	if gotLow.Done || gotLow.D.Resets != 1 || gotLow.D.Stages != 0 {
		t.Errorf("restart incomplete: %+v", gotLow)
	}
}

// TestStageAdvanceByCounter: an agent reaching F·s own interactions enters
// the next stage and OnStage fires exactly once.
func TestStageAdvanceByCounter(t *testing.T) {
	p := MustNew(Config{F: 4}, trackerDownstream())
	r := rand.New(rand.NewPCG(3, 4))
	a := State[tracker]{S: 2, C: 6, D: tracker{Inited: true}} // threshold 8; this tick is #7
	b := State[tracker]{S: 2, D: tracker{Inited: true}}
	a, b = p.Rule(a, b, r) // C=7
	if a.Stage != 0 {
		t.Fatalf("advanced early: %+v", a)
	}
	a, _ = p.Rule(a, b, r) // C=8 → stage 1
	if a.Stage != 1 || a.C != 0 || a.D.Stages != 1 {
		t.Errorf("stage advance wrong: %+v", a)
	}
}

// TestStageCatchUpAppliesOnStagePerSkip: epidemic catch-up over multiple
// stages invokes OnStage once per stage, in order.
func TestStageCatchUpAppliesOnStagePerSkip(t *testing.T) {
	p := MustNew(Config{F: 100}, trackerDownstream())
	r := rand.New(rand.NewPCG(5, 6))
	behind := State[tracker]{S: 3, D: tracker{Inited: true}}
	ahead := State[tracker]{S: 3, Stage: 2, D: tracker{Inited: true, Stages: 2}}
	gotBehind, _ := p.Rule(behind, ahead, r)
	if gotBehind.Stage != 2 || gotBehind.D.Stages != 2 {
		t.Errorf("catch-up = %+v, want stage 2 with 2 OnStage calls", gotBehind)
	}
}

// TestDoneAtStageTarget: agents complete after Stages(s) stages.
func TestDoneAtStageTarget(t *testing.T) {
	p := MustNew(Config{F: 1}, trackerDownstream())
	r := rand.New(rand.NewPCG(7, 8))
	a := State[tracker]{S: 1, Stage: 2, C: 0, D: tracker{Inited: true}}
	b := State[tracker]{S: 1, Stage: 2, D: tracker{Inited: true}}
	a, _ = p.Rule(a, b, r) // threshold F·s = 1 → advance to stage 3 = Stages()
	if !a.Done {
		t.Errorf("not done after final stage: %+v", a)
	}
}

// TestEndToEndConvergence: the wrapper converges on a real population and
// hands the downstream the same weak estimate everywhere.
func TestEndToEndConvergence(t *testing.T) {
	p := MustNew(Config{F: 16}, trackerDownstream())
	const n = 500
	s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(6))
	ok, _ := s.RunUntil(p.Converged, 5, 1e6)
	if !ok {
		t.Fatal("composition did not converge")
	}
	logN := math.Log2(n)
	est := float64(s.Agent(0).S)
	if est < logN-math.Log2(math.Log(n))-1 || est > 2*logN+1 {
		t.Errorf("weak estimate %v outside Corollary D.7 interval around log n = %.1f", est, logN)
	}
	for i, a := range s.Agents() {
		if !a.D.Inited {
			t.Fatalf("agent %d lost downstream init", i)
		}
	}
}
