package expt

import (
	"fmt"
	"math"

	"github.com/popsim/popsize/internal/compose"
	"github.com/popsim/popsize/internal/leaderelect"
	"github.com/popsim/popsize/internal/majority"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

// CompositionDef is E17: the restart-based composition of Section 1.1
// turning the nonuniform majority and leader-election protocols uniform.
// Majority is swept over margins (one point per margin,
// "E17/majority/m=<margin>"); leader election reports unique-leader rates
// ("E17/leader").
func CompositionDef(env Env, n int, margins []float64, trials int) Def {
	const id = "E17"
	marginExp := func(m float64) string { return fmt.Sprintf("%s/majority/m=%g", id, m) }
	var points []sweep.Point
	for _, margin := range margins {
		plus := n/2 + int(margin*float64(n)/2)
		opinions := make([]int8, n)
		for i := range opinions {
			if i < plus {
				opinions[i] = 1
			} else {
				opinions[i] = -1
			}
		}
		points = append(points, sweep.Point{
			Experiment: marginExp(margin), N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				p := compose.MustNew(compose.Config{F: 16}, majority.Downstream(opinions))
				s := p.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
				ok, at := s.RunUntil(p.Converged, 10, 5e5)
				if ok {
					s.RunTime(20 * math.Log2(float64(n)))
				}
				pl, mi, und := majority.Outputs(s)
				succ := sweep.Bool(ok && und == 0 && pl > 0 && mi == 0)
				if !ok {
					at = math.NaN()
				}
				return sweep.Values{"time": at, "success": succ}
			},
		})
	}
	points = append(points, sweep.Point{
		Experiment: id + "/leader", N: n, Trials: trials,
		Run: func(tr int, seed uint64) sweep.Values {
			p := compose.MustNew(compose.Config{F: 16}, leaderelect.Downstream())
			s := p.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
			ok, at := s.RunUntil(p.Converged, 10, 5e5)
			if ok {
				// The coin-flip tiebreak continues after the staged rounds.
				s.RunUntil(func(s pop.Engine[compose.State[leaderelect.State]]) bool {
					return leaderelect.Candidates(s) == 1
				}, 10, 1e5)
			}
			unique := sweep.Bool(leaderelect.Candidates(s) == 1)
			if !ok {
				at = math.NaN()
			}
			return sweep.Values{"time": at, "unique": unique}
		},
	})
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E17: uniformized downstream protocols via the §1.1 composition",
			Note: "Majority margins are fractions of n (0.01 = 51/49 split). " +
				"Success = every agent outputs the true majority sign.",
			Columns: []string{"protocol", "n", "margin", "success", "mean time"},
		}
		for _, margin := range margins {
			exp := marginExp(margin)
			nSucc := 0
			for _, s := range res.Values(exp, n, "success") {
				if s == 1 {
					nSucc++
				}
			}
			ts := stats.Summarize(res.Values(exp, n, "time"))
			t.AddRow("majority", stats.I(n), stats.F(margin),
				stats.I(nSucc)+"/"+stats.I(trials), stats.F(ts.Mean))
		}
		nUnique := 0
		for _, u := range res.Values(id+"/leader", n, "unique") {
			if u == 1 {
				nUnique++
			}
		}
		ts := stats.Summarize(res.Values(id+"/leader", n, "time"))
		t.AddRow("leader election", stats.I(n), "—",
			stats.I(nUnique)+"/"+stats.I(trials), stats.F(ts.Mean))
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}
