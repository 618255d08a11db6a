package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// steadyParams sizes steady-dense-1e9. Warming a population of target
// size from cold would take about a minute at 10⁷ and far longer at 10⁹, so
// the configuration is derived: warm warmN agents for warmTime units,
// then scale every count by scale.
type steadyParams struct {
	warmN    int
	warmTime float64
	scale    int64
	chunk    float64 // parallel time per timed op
}

var steadySize = steadyParams{warmN: 100_000, warmTime: 60, scale: 10_000, chunk: 0.05}

// lessState is a total order on core.State, field by field, so a multiset
// read out of Engine.Counts (a map, iterated in random order) is rebuilt
// in the same order in every process.
func lessState(a, b core.State) bool {
	switch {
	case a.Role != b.Role:
		return a.Role < b.Role
	case a.LogSize2 != b.LogSize2:
		return a.LogSize2 < b.LogSize2
	case a.GR != b.GR:
		return a.GR < b.GR
	case a.Time != b.Time:
		return a.Time < b.Time
	case a.Epoch != b.Epoch:
		return a.Epoch < b.Epoch
	case a.Sum != b.Sum:
		return a.Sum < b.Sum
	case a.Done != b.Done:
		return !a.Done
	case a.HasOutput != b.HasOutput:
		return !a.HasOutput
	case a.OutSum != b.OutSum:
		return a.OutSum < b.OutSum
	default:
		return a.OutK < b.OutK
	}
}

// steadyConfig derives the steady-state multiset: a warmed small run's
// configuration in lessState order with every count multiplied by
// sp.scale. Two calls with one seed return identical slices.
func steadyConfig(p *core.Protocol, sp steadyParams, seed uint64) ([]core.State, []int64) {
	e := pop.NewEngineFromCounts([]core.State{core.Initial()}, []int64{int64(sp.warmN)}, p.Rule, pop.WithSeed(seed))
	e.RunTime(sp.warmTime)
	counts := e.Counts()
	states := make([]core.State, 0, len(counts))
	for s := range counts {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool { return lessState(states[i], states[j]) })
	scaled := make([]int64, len(states))
	for i, s := range states {
		scaled[i] = int64(counts[s]) * sp.scale
	}
	return states, scaled
}

// runSteady times the dense engine at steady state on the derived
// configuration, one chunk of parallel time per op, all on one engine.
// Work is counted in 10⁶ simulated interactions; latency is the wall time
// of a chunk.
func runSteady(c runConfig, sp steadyParams) (*outcome, error) {
	o := newOutcome()
	p, err := core.New(core.FastConfig())
	if err != nil {
		return nil, err
	}
	var states []core.State
	var counts []int64
	build := func(par int) pop.Engine[core.State] {
		return pop.NewEngineFromCounts(states, counts, p.Rule, pop.WithSeed(pop.TrialSeed(c.seed, c.name, 0)),
			pop.WithBackend(pop.Dense), pop.WithParallelism(par))
	}
	var e pop.Engine[core.State]
	if err := o.timeSetup(func() error {
		states, counts = steadyConfig(p, sp, pop.TrialSeed(c.seed, c.name+"/warm", 0))
		id := c.tr.begin("pop.NewEngine", "set-up", 0)
		e = build(0)
		c.tr.end(id)
		return nil
	}); err != nil {
		return nil, err
	}
	n := int64(sp.warmN) * sp.scale

	o.timeOps(c.budget, func(i int) (float64, float64, error) {
		op := "chunk " + strconv.Itoa(i)
		before := countsOf(e)
		run := c.tr.begin("pop.RunTime", op, 0)
		start := time.Now()
		e.RunTime(sp.chunk)
		secs := time.Since(start).Seconds()
		c.tr.end(run)
		o.latency = append(o.latency, secs)
		cnt := countsOf(e).plus(before, -1)
		o.engineOp(i, cnt)
		probeLive(c, o, e, op, 0)
		o.noteHeap()
		return float64(cnt.interactions) / 1e6, secs, checkPopulation(n, e.N(), e.Counts())
	})
	if c.tr != nil {
		o.timeLayers(c.tr.recorded())
		forkLayer(o, build, sp.chunk)
	}
	return o, nil
}

// checkPopulation checks a chunk's conservation invariant: the engine
// still holds n agents and its configuration counts add up to them.
func checkPopulation[S comparable](n int64, got int, counts map[S]int) error {
	var sum int64
	for _, c := range counts {
		sum += int64(c)
	}
	if int64(got) != n || sum != n {
		return fmt.Errorf("population N()=%d, Σcounts=%d, want %d", got, sum, n)
	}
	return nil
}
