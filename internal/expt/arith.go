package expt

import (
	"math"

	"github.com/popsim/popsize/internal/arith"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

// ArithmeticDef is E18: the introduction's efficient-vs-inefficient
// example — x,q → y,y doubles in O(log n) while x,x → y,q halves in Θ(n).
// The two protocols are separate points ("E18/double", "E18/halve").
func ArithmeticDef(env Env, ns []int, trials int) Def {
	const id = "E18"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points,
			sweep.Point{
				Experiment: id + "/double", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					s := arith.NewDoubleEngine(n, n/4, pop.WithSeed(seed), env.engineOpt())
					at, ok := arith.CompletionTime(s, false, 1e6)
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"time": at}
				},
			},
			sweep.Point{
				Experiment: id + "/halve", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					s := arith.NewHalveEngine(n, n/4, pop.WithSeed(seed), env.engineOpt())
					at, ok := arith.CompletionTime(s, (n/4)%2 == 1, 1e8)
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"time": at}
				},
			})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E18: intro example — 2x in O(log n) vs ⌊x/2⌋ in Θ(n) (Section 1)",
			Note:  "x = n/4 input agents in both protocols.",
			Columns: []string{"n", "double mean time", "double/ln n", "halve mean time",
				"halve/n", "ratio"},
		}
		for _, n := range ns {
			ds := stats.Summarize(res.Values(id+"/double", n, "time"))
			hs := stats.Summarize(res.Values(id+"/halve", n, "time"))
			t.AddRow(stats.I(n), stats.F(ds.Mean), stats.F(ds.Mean/math.Log(float64(n))),
				stats.F(hs.Mean), stats.F(hs.Mean/float64(n)), stats.F(hs.Mean/ds.Mean))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}
