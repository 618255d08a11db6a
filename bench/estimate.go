package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// estimateSize is estimate-16k's population: large enough for the auto
// backend to pick the batched engine, small enough for a run to hold
// several trials, which keeps its throughput steady across seeds.
const estimateSize = 1 << 14

// estimateMaxErr bounds |estimate − log₂ n| for every agent, the bound the
// core package's small-n convergence test uses.
const estimateMaxErr = 6.7

// runEstimate runs the paper's Log-Size-Estimation pipeline to convergence,
// one trial per op, on the backend the auto heuristic picks for n agents,
// checking every log₂ n time units as core.Protocol.Run does. Work is
// counted in 10⁶ simulated interactions.
func runEstimate(c runConfig, n int) (*outcome, error) {
	o := newOutcome()
	var p *core.Protocol
	newEngine := func(i int) pop.Engine[core.State] {
		return p.NewEngine(n, pop.WithSeed(pop.TrialSeed(c.seed, c.name, i)))
	}
	if err := o.timeSetup(func() error {
		var err error
		if p, err = core.New(core.FastConfig()); err != nil {
			return err
		}
		newEngine(0)
		return nil
	}); err != nil {
		return nil, err
	}
	checkEvery := math.Max(1, math.Log2(float64(n)))
	maxTime := p.DefaultMaxTime(n)

	var convergedS, estimatesS []float64
	o.timeOps(c.budget, func(i int) (float64, float64, error) {
		op := "trial " + strconv.Itoa(i)
		root := c.tr.begin("estimate.trial", op, 0)
		defer c.tr.end(root)
		sp := c.tr.begin("pop.NewEngine", op, root)
		e := newEngine(i)
		c.tr.end(sp)
		r := runChecked(c, o, op, root, e, "core.Converged", p.Converged, checkEvery, maxTime)
		sp = c.tr.begin("core.Estimates", op, root)
		start := time.Now()
		est := core.Estimates(e)
		estimates := time.Since(start).Seconds()
		c.tr.end(sp)

		convergedS = append(convergedS, r.inPred)
		estimatesS = append(estimatesS, estimates)
		o.engineOp(i, countsOf(e))
		if i == 0 {
			o.det["core.converge_ptime"] = strconv.FormatFloat(r.at, 'g', -1, 64)
			o.det["core.checks"] = strconv.Itoa(r.checks)
			o.setLayer("core.checks", float64(r.checks), "")
			o.setLayer("core.converge_ptime", r.at, "")
			o.setLayer("core.max_err", est.MaxErr, "")
		}
		o.noteHeap()
		return float64(e.Interactions()) / 1e6, r.secs + estimates, checkEstimate(n, r.ok, r.at, est)
	})
	if c.tr != nil {
		o.timeLayers(c.tr.recorded())
		o.setLayer("core.converged_s", median(convergedS), fmt.Sprintf("per trial, %d trials", len(convergedS)))
		o.setLayer("core.estimates_s", median(estimatesS), fmt.Sprintf("per trial, %d trials", len(estimatesS)))
	}
	return o, nil
}

// checkEstimate is the pipeline's correctness check: the run converged and
// every agent's estimate is within estimateMaxErr of log₂ n.
func checkEstimate(n int, converged bool, at float64, est core.EstimateStats) error {
	switch {
	case !converged:
		return fmt.Errorf("n=%d did not converge by parallel time %.0f", n, at)
	case est.HaveOutput != n:
		return fmt.Errorf("n=%d: %d agents hold an estimate", n, est.HaveOutput)
	case est.MaxErr > estimateMaxErr:
		return fmt.Errorf("n=%d: max |estimate − log₂ n| = %.2f > %.1f", n, est.MaxErr, estimateMaxErr)
	}
	return nil
}
