package expt

import (
	"math"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/leaderterm"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/producible"
	"github.com/popsim/popsize/internal/protocol"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
	"github.com/popsim/popsize/internal/term"
)

// ProducibilityDef is E11: the timer/density Lemma 4.2 — every state in
// Λ^m_ρ reaches a constant fraction of n by time 1 from α-dense
// configurations, with the fraction independent of n.
func ProducibilityDef(env Env, ns []int, trials int) Def {
	const id = "E11"
	am := protocol.AMCompiled()
	const m = 4
	cc := producible.CounterChain(m)
	var points []sweep.Point
	for _, n := range ns {
		points = append(points,
			sweep.Point{
				Experiment: id + "/approx-majority", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					states, counts := producible.DenseConfig([]int{1, -1}, 0.5, n)
					rep := producible.CheckLemma42(am, states, counts, 1, 1, seed, env.engineOpt())
					return sweep.Values{"minfrac": rep.MinFraction}
				},
			},
			sweep.Point{
				Experiment: id + "/counter-chain", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					states, counts := producible.DenseConfig([]int{0}, 1, n)
					rep := producible.CheckLemma42(cc, states, counts, 1, m, seed, env.engineOpt())
					return sweep.Values{
						"minfrac":    rep.MinFraction,
						"terminated": float64(rep.Counts[m]),
					}
				},
			})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E11: timer/density Lemma 4.2 — min density over Λ^m_ρ at time 1",
			Note: "3-state approximate majority from ½A/½B (m=1) and the constant-threshold " +
				"counter terminator from all-c0 (m=4, T = terminated state). " +
				"Densities must not vanish as n grows.",
			Columns: []string{"protocol", "n", "min density (mean)", "min density (min)", "terminated count (mean)"},
		}
		for _, n := range ns {
			s := stats.Summarize(res.Values(id+"/approx-majority", n, "minfrac"))
			t.AddRow("approx-majority", stats.I(n), stats.F(s.Mean), stats.F(s.Min), "—")

			s = stats.Summarize(res.Values(id+"/counter-chain", n, "minfrac"))
			tc := stats.Summarize(res.Values(id+"/counter-chain", n, "terminated"))
			t.AddRow("counter-chain(4)", stats.I(n), stats.F(s.Mean), stats.F(s.Min), stats.F(tc.Mean))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// TerminationDenseDef is E12, the empirical face of Theorem 4.1: the
// uniform dense counter-terminator's first-termination time is flat in n,
// while the leader-driven protocol (non-dense initial configuration — the
// theorem's escape hatch) grows as Θ(log² n).
func TerminationDenseDef(env Env, cfg core.Config, ns []int, trials int) Def {
	const id = "E12"
	ct := term.CounterTerminator{Threshold: 40}
	lp := leaderterm.MustNew(cfg, 0)
	var points []sweep.Point
	for _, n := range ns {
		points = append(points,
			sweep.Point{
				Experiment: id + "/dense", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					s := pop.NewEngine(n, ct.Initial, ct.Rule, pop.WithSeed(seed), env.engineOpt())
					at, ok := term.FirstTermination(s, term.Terminated, 0.5, 1e5)
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"time": at}
				},
			},
			sweep.Point{
				Experiment: id + "/leader", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					s := lp.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
					at, ok := term.FirstTermination(s, leaderterm.Terminated, 5, 100*lp.Main().DefaultMaxTime(n))
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"time": at}
				},
			})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E12: Theorem 4.1 — first-termination time vs n",
			Note: "counter(40) is uniform with a 1-dense initial configuration: its signal " +
				"cannot wait for n. The leader timer (Theorem 3.13) may: its initial " +
				"configuration has a count-1 state.",
			Columns: []string{"n", "dense counter(40) mean", "leader timer mean", "leader/dense ratio"},
		}
		for _, n := range ns {
			ds := stats.Summarize(res.Values(id+"/dense", n, "time"))
			ls := stats.Summarize(res.Values(id+"/leader", n, "time"))
			t.AddRow(stats.I(n), stats.F(ds.Mean), stats.F(ls.Mean), stats.F(ls.Mean/ds.Mean))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// LeaderTerminationDef is E13: Theorem 3.13 — with an initial leader,
// termination fires after the main protocol has converged (w.h.p.), at
// Θ(log² n) parallel time, and the resulting estimate meets the error
// bound.
func LeaderTerminationDef(env Env, cfg core.Config, ns []int, trials int) Def {
	const id = "E13"
	p := leaderterm.MustNew(cfg, 0)
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				s := p.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
				at, ok := term.FirstTermination(s, leaderterm.Terminated, 2, 100*p.Main().DefaultMaxTime(n))
				if !ok {
					// Match the historical per-trial defaults: a timed-out
					// trial contributes NaN time but zero error/earliness.
					return sweep.Values{"time": math.NaN(), "early": 0, "err": 0}
				}
				early := sweep.Bool(!p.MainConverged(s))
				logN := math.Log2(float64(n))
				maxErr := 0.0
				for a := range s.Counts() {
					if est, has := a.Main.Estimate(); has {
						maxErr = math.Max(maxErr, math.Abs(est-logN))
					}
				}
				return sweep.Values{"time": at, "early": early, "err": maxErr}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title:   "E13: terminating size estimation with a leader (Theorem 3.13)",
			Columns: []string{"n", "term time mean", "time/log² n", "terminated before convergence", "err max at termination"},
		}
		for _, n := range ns {
			nEarly := 0
			for _, e := range res.Values(id, n, "early") {
				if e == 1 {
					nEarly++
				}
			}
			ts := stats.Summarize(res.Values(id, n, "time"))
			es := stats.Summarize(res.Values(id, n, "err"))
			logN := math.Log2(float64(n))
			t.AddRow(stats.I(n), stats.F(ts.Mean), stats.F(ts.Mean/(logN*logN)),
				stats.I(nEarly), stats.F(es.Max))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}
