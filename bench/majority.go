package main

import (
	"fmt"
	"math"
	"strconv"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/protocol"
)

// majoritySize is majority-dense-1e8's population.
const majoritySize = 100_000_000

// majorityCheck is the consensus-check interval in parallel time, the
// approxmajority registry entry's.
const majorityCheck = 0.5

// majoritySplit is the approxmajority registry entry's initial
// configuration: a 54/46 split with opinion +1 in the majority.
func majoritySplit(n int) []int64 {
	a := (int64(n)*27 + 49) / 50
	return []int64{a, int64(n) - a}
}

// consensus reports whether every agent holds the same nonzero opinion.
func consensus(e pop.Engine[int]) bool {
	first, opinion := true, 0
	return e.All(func(s int) bool {
		if first {
			first, opinion = false, s
		}
		return s != 0 && s == opinion
	})
}

// runMajority runs the table-compiled approximate-majority protocol on the
// dense engine from the 54/46 split to consensus, one seed per op. Every
// transition is resolved by the declared table. Work is counted in 10⁶
// simulated interactions; latency is sampled between consecutive
// consensus checks, every majorityCheck time units.
func runMajority(c runConfig, n int) (*outcome, error) {
	o := newOutcome()
	tbl := protocol.AMCompiled()
	build := func(seed uint64, par int) pop.Engine[int] {
		return pop.NewEngineFromCounts([]int{1, -1}, majoritySplit(n), tbl.Rule(),
			pop.WithSeed(seed), pop.WithBackend(pop.Dense), pop.WithParallelism(par), tbl.Option())
	}
	if err := o.timeSetup(func() error {
		build(pop.TrialSeed(c.seed, c.name, 0), 0)
		return nil
	}); err != nil {
		return nil, err
	}
	maxTime := 32*math.Log2(float64(n)) + 64

	o.timeOps(c.budget, func(i int) (float64, float64, error) {
		op := "seed " + strconv.Itoa(i)
		root := c.tr.begin("majority.run", op, 0)
		defer c.tr.end(root)
		sp := c.tr.begin("pop.NewEngine", op, root)
		e := build(pop.TrialSeed(c.seed, c.name, i), 0)
		c.tr.end(sp)
		r := runChecked(c, o, op, root, e, "protocol.Converged", consensus, majorityCheck, maxTime)
		cnt := countsOf(e)
		o.engineOp(i, cnt)
		if i == 0 {
			o.det["protocol.consensus_ptime"] = strconv.FormatFloat(r.at, 'g', -1, 64)
		}
		o.noteHeap()
		return float64(cnt.interactions) / 1e6, r.secs, checkMajority(r.ok, r.at, e.N(), e.Count(func(s int) bool { return s == 1 }))
	})
	if c.tr != nil {
		o.timeLayers(c.tr.recorded())
		forkLayer(o, func(par int) pop.Engine[int] { return build(pop.TrialSeed(c.seed, c.name, 0), par) }, 2)
	}
	return o, nil
}

// checkMajority checks a run's outcome: consensus within the time budget,
// on the initial majority's opinion.
func checkMajority(converged bool, at float64, n, plus int) error {
	switch {
	case !converged:
		return fmt.Errorf("no consensus by parallel time %.1f", at)
	case plus != n:
		return fmt.Errorf("consensus on the minority: %d of %d agents hold +1", plus, n)
	}
	return nil
}
