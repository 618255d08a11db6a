package expt

import (
	"fmt"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
	"github.com/popsim/popsize/internal/synthcoin"
)

// Def couples one experiment's sweep points with the renderer that turns
// the recorded trials back into the experiment's table. Generators no
// longer run their own trial loops: they declare points, the sweep
// subsystem executes them (one global queue when a command submits several
// experiments at once), and Render reads the per-trial values back out of
// the results — whether those came from a live run or from a resumed JSONL
// checkpoint.
type Def struct {
	// ID is the experiment's index entry (F2, E1–E18, A1–A3). Points may
	// refine it with sub-configuration labels ("E17/majority/m=0.2").
	ID string
	// Env is the engine environment the Points were bound to at
	// construction: the trial closures captured it, and Table stamps the
	// local sweep.Spec from it so the records match what the trials ran.
	Env    Env
	Points []sweep.Point
	Render func(*sweep.Results) stats.Table
}

// Table runs the Def's points through a local sweep (no JSONL stream) and
// renders its table — the single-experiment path the tests use. Commands that run many experiments
// submit all their Points into one shared queue instead, so trials from
// different experiments interleave across the worker pool.
func (d Def) Table(seedBase uint64) stats.Table {
	return d.Render(runLocal(d.Env, d.Points, seedBase))
}

// runLocal executes points with no output stream or checkpoint, stamping
// the spec from the env the points were bound to.
func runLocal(env Env, points []sweep.Point, seedBase uint64) *sweep.Results {
	res, err := sweep.Run(
		sweep.Spec{Points: points, BaseSeed: seedBase, Backend: env.Backend},
		sweep.Options{})
	if err != nil {
		// A local run has no checkpoint or stream, so Run errs only
		// when a trial panicked; re-panic with its message.
		panic(fmt.Sprintf("expt: local sweep failed: %v", err))
	}
	return res
}

// Params sizes the default reproduction suite (see EXPERIMENTS.md):
// population-size grids, per-point trial counts, IID sample counts for the
// distributional experiments (E8/E9), and the composition population.
type Params struct {
	Ns       []int
	BigNs    []int
	Trials   int
	Samples  int
	ComposeN int
	// ChurnRates are the membership-turnover rates (agents replaced per
	// unit of parallel time, as a fraction of n) swept by E-churn; the
	// churn experiments run on Ns minus its largest entry (tracked runs
	// cost a full convergence budget per trial).
	ChurnRates []float64
}

// DefaultParams is the full EXPERIMENTS.md sizing.
func DefaultParams() Params {
	return Params{
		Ns:         []int{100, 1000, 10000},
		BigNs:      []int{1000, 10000, 100000},
		Trials:     10,
		Samples:    20000,
		ComposeN:   1000,
		ChurnRates: []float64{1e-5, 1e-4, 1e-3},
	}
}

// QuickParams is the -quick smoke sizing.
func QuickParams() Params {
	return Params{
		Ns:         []int{100, 500},
		BigNs:      []int{500, 5000},
		Trials:     4,
		Samples:    4000,
		ComposeN:   400,
		ChurnRates: []float64{1e-4, 1e-3},
	}
}

// DefaultDefs assembles the whole reproduction suite — DESIGN.md's
// experiment index in order — sized by p, with every def's trial closures
// bound to env. It is the single source of truth for which trials the
// suite runs, which is what lets the seed-derivation regression test
// assert pairwise-distinct engine seeds over the exact default grid.
func DefaultDefs(env Env, cfg core.Config, scCfg synthcoin.Config, p Params) []Def {
	last := p.Ns[len(p.Ns)-1]
	return []Def{
		Fig2Def(env, cfg, p.Ns, p.Trials),
		ErrorDistributionDef(env, cfg, p.Ns, p.Trials*3),
		StateCountDef(env, cfg, p.Ns, p.Trials),
		PartitionDef(env, cfg, p.Ns, p.Trials*3),
		LogSize2RangeDef(env, cfg, p.Ns, p.Trials*3),
		EpidemicDef(env, p.Ns, p.Trials),
		InteractionConcentrationDef(env, p.BigNs, p.Trials),
		MaxGeometricDef(env, p.BigNs, p.Samples),
		SumOfMaximaDef(env, p.BigNs, p.Samples/4),
		DepletionDef(env, p.Ns, p.Trials),
		ProducibilityDef(env, p.BigNs, p.Trials),
		TerminationDenseDef(env, cfg, p.Ns, p.Trials),
		LeaderTerminationDef(env, cfg, p.Ns[:len(p.Ns)-1], p.Trials),
		UpperBoundDef(env, cfg, []int{64, 128, 256}, p.Trials),
		SyntheticCoinDef(env, cfg, scCfg, p.Ns[:len(p.Ns)-1], p.Trials),
		BaselinesDef(env, cfg, []int{100, 400, 1600}, p.Trials),
		CompositionDef(env, p.ComposeN, []float64{0.5, 0.2, 0.05}, p.Trials),
		ArithmeticDef(env, p.Ns, p.Trials),
		AblationClockFactorDef(env, last, []int{4, 8, 16, 32, 95}, p.Trials),
		AblationEpochFactorDef(env, last, []int{1, 2, 3, 5}, p.Trials),
		AblationNoRestartDef(env, last, p.Trials*2),
		ChurnTrackingDef(env, cfg, p.Ns[:len(p.Ns)-1], p.ChurnRates, p.Trials),
		ChurnDetectionDef(env, cfg, p.Ns[:len(p.Ns)-1], p.Trials),
		ZooJuntaDef(env, p.Ns, p.Trials),
		ZooRepeatMajorityDef(env, p.Ns, p.Trials),
		ZooBKRCountDef(env, p.Ns, p.Trials),
	}
}
