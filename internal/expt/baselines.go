package expt

import (
	"math"

	"github.com/popsim/popsize/internal/approxsize"
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/exactcount"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

// BaselinesDef is E16: the accuracy/time trade among the [2]-style one-shot
// maximum (O(log n) time, multiplicative error), the paper's protocol
// (O(log² n) time, additive error), and [32]-style exact counting with a
// leader (O(n log n) time, exact). The shape to reproduce: each step up in
// accuracy costs roughly a multiplicative log n → n/log n factor in time.
// The three protocols are separate sweep points ("E16/weak", "E16/main",
// "E16/exact").
func BaselinesDef(env Env, cfg core.Config, ns []int, trials int) Def {
	const id = "E16"
	mp := core.MustNew(cfg)
	ep := exactcount.New(0)
	var points []sweep.Point
	for _, n := range ns {
		logN := math.Log2(float64(n))
		points = append(points,
			sweep.Point{
				Experiment: id + "/weak", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					s := approxsize.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
					ok, at := s.RunUntil(approxsize.Converged, 1, 100*logN)
					ratio := 0.0
					if k, has := approxsize.CommonK(s); has {
						ratio = float64(k) / logN
					}
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"time": at, "ratio": ratio}
				},
			},
			sweep.Point{
				Experiment: id + "/main", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					r := mp.Run(n, env.runOptions(seed))
					return sweep.Values{"time": r.Time, "err": r.MaxErr}
				},
			},
			sweep.Point{
				Experiment: id + "/exact", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					s := ep.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
					ok, at := s.RunUntil(exactcount.Terminated, 5, float64(5000*n))
					correct := sweep.Bool(exactcount.LeaderCount(s) == n)
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"time": at, "correct": correct}
				},
			})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E16: baselines — time vs accuracy",
			Note: "[2]: k within [log n − log ln n, 2 log n] (multiplicative in log n). " +
				"Main: |k − log n| <= 5.7 (additive). Exact count: k = log n exactly.",
			Columns: []string{"n", "[2] time", "[2] k/log n", "main time", "main |err|",
				"exact time", "exact correct"},
		}
		for _, n := range ns {
			nCorrect := 0
			for _, c := range res.Values(id+"/exact", n, "correct") {
				if c == 1 {
					nCorrect++
				}
			}
			at := stats.Summarize(res.Values(id+"/weak", n, "time"))
			rt := stats.Summarize(res.Values(id+"/weak", n, "ratio"))
			mt := stats.Summarize(res.Values(id+"/main", n, "time"))
			me := stats.Summarize(res.Values(id+"/main", n, "err"))
			et := stats.Summarize(res.Values(id+"/exact", n, "time"))
			t.AddRow(stats.I(n), stats.F(at.Mean), stats.F(rt.Mean), stats.F(mt.Mean),
				stats.F(me.Mean), stats.F(et.Mean),
				stats.I(nCorrect)+"/"+stats.I(trials))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}
