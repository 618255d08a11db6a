package expt

import (
	"math"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
	"github.com/popsim/popsize/internal/synthcoin"
	"github.com/popsim/popsize/internal/upperbound"
)

// UpperBoundDef is E14: the Section 3.3 probability-1 upper-bound protocol
// — after stabilization every agent's report is >= log2 n, and kex equals
// ⌊log2 n⌋ + 1 exactly.
func UpperBoundDef(env Env, cfg core.Config, ns []int, trials int) Def {
	const id = "E14"
	p := upperbound.MustNew(cfg)
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				s := p.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
				ok, _ := s.RunUntil(upperbound.TournamentDone, 10, float64(500*n))
				if !ok {
					// Historical defaults for a timed-out trial: no kex,
					// zero report extremes.
					return sweep.Values{"kex": math.NaN(), "lo": 0, "hi": 0}
				}
				s.RunTime(60 * math.Log2(float64(n)))
				// §3.3's claim is about every agent, so kex is the
				// smallest value any agent holds.
				lo, hi, kex := math.Inf(1), math.Inf(-1), math.Inf(1)
				for a := range s.Counts() {
					v, _ := upperbound.Report(a)
					lo, hi = math.Min(lo, v), math.Max(hi, v)
					kex = math.Min(kex, float64(a.Kex))
				}
				return sweep.Values{"kex": kex, "lo": lo, "hi": hi}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title:   "E14: probability-1 upper bound (§3.3): report >= log2 n always",
			Columns: []string{"n", "log2 n", "kex (exact)", "report min", "report max", "below log n"},
		}
		for _, n := range ns {
			logN := math.Log2(float64(n))
			los := res.Values(id, n, "lo")
			his := res.Values(id, n, "hi")
			below := 0
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := range los {
				if los[i] < logN {
					below++
				}
				lo, hi = math.Min(lo, los[i]), math.Max(hi, his[i])
			}
			ks := stats.Summarize(res.Values(id, n, "kex"))
			t.AddRow(stats.I(n), stats.F(logN), stats.F(ks.Mean), stats.F(lo), stats.F(hi),
				stats.I(below))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// SyntheticCoinDef is E15: the Appendix B deterministic-transition variant
// — error and convergence-time parity with the main protocol. Main and
// synthetic runs are separate points ("E15/main", "E15/synth") drawing
// independent seeds.
func SyntheticCoinDef(env Env, mainCfg core.Config, scCfg synthcoin.Config, ns []int, trials int) Def {
	const id = "E15"
	mp := core.MustNew(mainCfg)
	sp := synthcoin.MustNew(scCfg)
	var points []sweep.Point
	for _, n := range ns {
		points = append(points,
			sweep.Point{
				Experiment: id + "/main", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					r := mp.Run(n, env.runOptions(seed))
					return sweep.Values{"err": r.MaxErr, "time": r.Time}
				},
			},
			sweep.Point{
				Experiment: id + "/synth", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					logN := math.Log2(float64(n))
					s := sp.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
					budget := 40.0 * float64(scCfg.ClockFactor*scCfg.EpochFactor) * logN * logN
					ok, at := s.RunUntil(sp.Converged, logN, budget)
					maxErr := 0.0
					for a := range s.Counts() {
						if est, has := a.Estimate(); has {
							maxErr = math.Max(maxErr, math.Abs(est-logN))
						}
					}
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"err": maxErr, "time": at}
				},
			})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E15: synthetic-coin variant (App. B) vs main protocol",
			Columns: []string{"n", "main err mean", "synth err mean", "main time mean",
				"synth time mean"},
		}
		for _, n := range ns {
			me := stats.Summarize(res.Values(id+"/main", n, "err"))
			se := stats.Summarize(res.Values(id+"/synth", n, "err"))
			mt := stats.Summarize(res.Values(id+"/main", n, "time"))
			st := stats.Summarize(res.Values(id+"/synth", n, "time"))
			t.AddRow(stats.I(n), stats.F(me.Mean), stats.F(se.Mean), stats.F(mt.Mean), stats.F(st.Mean))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}
