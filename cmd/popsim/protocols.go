// Registry entries for the estimation pipeline and its baselines. These
// protocols need the top-level popsize API, the core engine and the expt
// trajectory plumbing, so they register here in package main rather than
// in internal/protocol (which the experiment defs import and which
// therefore must stay below expt in the import graph). The table-compiled
// zoo registers itself from internal/protocol's own init functions.
package main

import (
	"fmt"
	"math"

	"github.com/popsim/popsize"
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/expt"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/protocol"
	"github.com/popsim/popsize/internal/sweep"
)

func init() {
	protocol.Register(protocol.Info{
		Name:       "main",
		Desc:       "Log-Size-Estimation, the paper's full pipeline",
		Trajectory: true,
		New:        newMainRunner,
	})
	protocol.Register(protocol.Info{
		Name: "synthcoin",
		Desc: "Appendix B deterministic-transition variant (synthetic coin)",
		New: func(cfg protocol.Config) (*protocol.Runner, error) {
			logN := math.Log2(float64(cfg.N))
			return &protocol.Runner{
				N: cfg.N,
				Run: func(tr int, seed uint64) sweep.Values {
					est, _, err := popsize.EstimateDeterministic(cfg.N, seed, pop.WithBackend(cfg.Backend))
					if err != nil {
						cfg.Fail(fmt.Errorf("trial %d: %w", tr, err))
						est = math.NaN()
					}
					return sweep.Values{"estimate": est}
				},
				Format: func(v sweep.Values) string {
					return fmt.Sprintf("estimate=%.3f err=%.3f", v["estimate"], math.Abs(v["estimate"]-logN))
				},
			}, nil
		},
	})
	protocol.Register(protocol.Info{
		Name: "upperbound",
		Desc: "§3.3 probability-1 upper bound",
		New: func(cfg protocol.Config) (*protocol.Runner, error) {
			logN := math.Log2(float64(cfg.N))
			return &protocol.Runner{
				N: cfg.N,
				Run: func(tr int, seed uint64) sweep.Values {
					bound, _, err := popsize.EstimateUpperBound(cfg.N, seed, pop.WithBackend(cfg.Backend))
					if err != nil {
						cfg.Fail(fmt.Errorf("trial %d: %w", tr, err))
						bound = math.NaN()
					}
					return sweep.Values{"bound": bound}
				},
				Format: func(v sweep.Values) string {
					return fmt.Sprintf("bound=%.3f log2(n)=%.3f holds=%v", v["bound"], logN, v["bound"] >= logN)
				},
			}, nil
		},
	})
	protocol.Register(protocol.Info{
		Name: "leaderterm",
		Desc: "§3.4 terminating variant with a leader",
		New: func(cfg protocol.Config) (*protocol.Runner, error) {
			return &protocol.Runner{
				N: cfg.N,
				Run: func(tr int, seed uint64) sweep.Values {
					r, err := popsize.EstimateTerminating(cfg.N, seed, pop.WithBackend(cfg.Backend))
					if err != nil {
						cfg.Fail(fmt.Errorf("trial %d: %w", tr, err))
						return sweep.Values{"terminated_at": math.NaN(), "converged_first": 0, "estimate": math.NaN()}
					}
					return sweep.Values{
						"terminated_at": r.TerminatedAt, "converged_first": sweep.Bool(r.ConvergedFirst),
						"estimate": r.Estimate,
					}
				},
				Format: func(v sweep.Values) string {
					return fmt.Sprintf("terminated_at=%.1f converged_first=%v estimate=%.3f",
						v["terminated_at"], v["converged_first"] == 1, v["estimate"])
				},
			}, nil
		},
	})
	protocol.Register(protocol.Info{
		Name: "weak",
		Desc: "[2]-style weak baseline (k = max interactions until repeat)",
		New: func(cfg protocol.Config) (*protocol.Runner, error) {
			logN := math.Log2(float64(cfg.N))
			return &protocol.Runner{
				N: cfg.N,
				Run: func(tr int, seed uint64) sweep.Values {
					k, err := popsize.WeakEstimate(cfg.N, seed, pop.WithBackend(cfg.Backend))
					if err != nil {
						cfg.Fail(fmt.Errorf("trial %d: %w", tr, err))
						return sweep.Values{"k": math.NaN()}
					}
					return sweep.Values{"k": float64(k)}
				},
				Format: func(v sweep.Values) string {
					return fmt.Sprintf("k=%d k/log2(n)=%.3f", int(v["k"]), v["k"]/logN)
				},
			}, nil
		},
	})
	protocol.Register(protocol.Info{
		Name: "exactcount",
		Desc: "[32]-style exact-counting baseline",
		New:  newExactCountRunner,
	})
}

// newMainRunner adapts the full estimation pipeline: it resolves the
// paper-vs-fast preset and binds the trajectory instrumentation and the
// eagerly parsed restore snapshot into a local expt.Env (the same
// env-scoped RunCore cmd/experiments' instrumented generators use).
func newMainRunner(cfg protocol.Config) (*protocol.Runner, error) {
	pcfg := popsize.FastConfig()
	if cfg.Paper {
		pcfg = popsize.PaperConfig()
	}
	p, err := core.New(pcfg)
	if err != nil {
		return nil, err
	}
	restore, n, note, err := protocol.Restored[core.State](cfg)
	if err != nil {
		return nil, err
	}
	env := expt.Env{Backend: cfg.Backend, Traj: cfg.Traj, Restore: restore}
	logN := math.Log2(float64(n))
	trials := cfg.Trials
	return &protocol.Runner{
		N:    n,
		Note: note,
		Run: func(tr int, seed uint64) sweep.Values {
			tag := ""
			if trials > 1 {
				tag = fmt.Sprintf("t%d", tr)
			}
			r, err := env.RunCore(p, n, tag, core.RunOptions{Seed: seed, Backend: cfg.Backend})
			if err != nil {
				cfg.Fail(fmt.Errorf("trial %d: %w", tr, err))
			}
			return sweep.Values{
				"converged": sweep.Bool(r.Converged), "time": r.Time,
				"estimate": r.Estimate, "countA": float64(r.CountA),
			}
		},
		Format: func(v sweep.Values) string {
			return fmt.Sprintf("converged=%v time=%.1f estimate=%.3f err=%.3f states(A)=%d",
				v["converged"] == 1, v["time"], v["estimate"],
				math.Abs(v["estimate"]-logN), int(v["countA"]))
		},
	}, nil
}
