package expt

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/prob"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

// ErrorDistributionDef is E1: the additive-error distribution of the main
// protocol vs Theorem 3.1's |k − log n| <= 5.7 with failure probability
// 9/n.
func ErrorDistributionDef(env Env, cfg core.Config, ns []int, trials int) Def {
	p := core.MustNew(cfg)
	const id = "E1"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				r := p.Run(n, env.runOptions(seed))
				return sweep.Values{"err": r.MaxErr}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E1: additive error |k − log n| (Theorem 3.1: <= 5.7 w.p. >= 1 − 9/n)",
			Columns: []string{"n", "trials", "err mean", "err q90", "err max",
				"> 5.7", "bound 9/n × trials"},
		}
		for _, n := range ns {
			errs := res.Values(id, n, "err")
			over := 0
			for _, e := range errs {
				if e > prob.MainErrorBound {
					over++
				}
			}
			s := stats.Summarize(errs)
			t.AddRow(stats.I(n), stats.I(trials), stats.F(s.Mean), stats.F(s.Q90),
				stats.F(s.Max), stats.I(over),
				stats.F(prob.MainErrorFailureProb(n)*float64(trials)))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// StateCountDef is E3: distinct states used per execution vs Lemma 3.9's
// O(log⁴ n), plus per-field maxima vs the lemma's table.
func StateCountDef(env Env, cfg core.Config, ns []int, trials int) Def {
	p := core.MustNew(cfg)
	const id = "E3"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				s := p.NewEngine(n, pop.WithSeed(seed), pop.WithStateTracking(), env.engineOpt())
				// Sample field maxima along the run (a converged snapshot has
				// all clocks reset, which would under-report the time field).
				var fm core.FieldMaxima
				ok := false
				deadline := p.DefaultMaxTime(n)
				for s.Time() < deadline {
					s.RunTime(math.Log2(float64(n)))
					m := core.Maxima(s)
					fm.LogSize2 = max(fm.LogSize2, m.LogSize2)
					fm.GR = max(fm.GR, m.GR)
					fm.Time = max(fm.Time, m.Time)
					fm.Epoch = max(fm.Epoch, m.Epoch)
					fm.Sum = max(fm.Sum, m.Sum)
					if p.Converged(s) {
						ok = true
						break
					}
				}
				states := math.NaN()
				if ok {
					states = float64(s.DistinctStates())
				}
				return sweep.Values{
					"states":       states,
					"max_logsize2": float64(fm.LogSize2),
					"max_gr":       float64(fm.GR),
					"max_time":     float64(fm.Time),
					"max_epoch":    float64(fm.Epoch),
					"max_sum":      float64(fm.Sum),
				}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E3: state complexity (Lemma 3.9: O(log⁴ n) states w.h.p.)",
			Note: "states/log⁴n should stay bounded as n grows. Field maxima " +
				"correspond to Lemma 3.9's per-field ranges (constants scale with the preset).",
			Columns: []string{"n", "distinct states (mean)", "states/log⁴ n",
				"max logSize2", "max gr", "max time", "max epoch", "max sum"},
		}
		maxOf := func(n int, field string) int {
			m := 0.0
			for _, v := range res.Values(id, n, field) {
				m = math.Max(m, v)
			}
			return int(m)
		}
		for _, n := range ns {
			s := stats.Summarize(res.Values(id, n, "states"))
			l4 := math.Pow(math.Log2(float64(n)), 4)
			t.AddRow(stats.I(n), stats.F(s.Mean), stats.F(s.Mean/l4),
				stats.I(maxOf(n, "max_logsize2")), stats.I(maxOf(n, "max_gr")),
				stats.I(maxOf(n, "max_time")), stats.I(maxOf(n, "max_epoch")),
				stats.I(maxOf(n, "max_sum")))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// PartitionDef is E4: the |A| ≈ n/2 concentration of Lemma 3.2/Cor 3.3.
func PartitionDef(env Env, cfg core.Config, ns []int, trials int) Def {
	p := core.MustNew(cfg)
	const id = "E4"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				s := p.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
				s.RunTime(8 * math.Log2(float64(n)))
				a := s.Count(func(st core.State) bool { return st.Role == core.RoleA })
				return sweep.Values{"dev": math.Abs(float64(a) - float64(n)/2)}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title:   "E4: partition balance (Lemma 3.2: |#A − n/2| <= a w.p. >= 1 − 2e^(−2a²/n))",
			Columns: []string{"n", "trials", "mean |dev|", "max |dev|", "√(n ln n)", "beyond √(n ln n)"},
		}
		for _, n := range ns {
			devs := res.Values(id, n, "dev")
			bound := math.Sqrt(float64(n) * math.Log(float64(n)))
			over := 0
			for _, d := range devs {
				if d > bound {
					over++
				}
			}
			s := stats.Summarize(devs)
			t.AddRow(stats.I(n), stats.I(trials), stats.F(s.Mean), stats.F(s.Max),
				stats.F(bound), stats.I(over))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// LogSize2RangeDef is E5: the weak estimate's Lemma 3.8 interval
// [log n − log ln n, 2 log n + 1], plus Corollary A.2's gr interval.
func LogSize2RangeDef(env Env, cfg core.Config, ns []int, trials int) Def {
	p := core.MustNew(cfg)
	const id = "E5"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				s := p.NewEngine(n, pop.WithSeed(seed), env.engineOpt())
				s.RunTime(10 * math.Log2(float64(n)))
				// By this time the maximum has propagated to all agents.
				return sweep.Values{"val": float64(core.Maxima(s).LogSize2 + uint8(cfg.GeomBonus))}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title:   "E5: logSize2 range (Lemma 3.8) — effective value = raw + bonus",
			Columns: []string{"n", "lo bound", "hi bound", "min seen", "max seen", "outside"},
		}
		for _, n := range ns {
			lo, hi := prob.LogSize2Interval(n)
			vals := res.Values(id, n, "val")
			outside := 0
			for _, v := range vals {
				if v < lo || v > hi {
					outside++
				}
			}
			s := stats.Summarize(vals)
			t.AddRow(stats.I(n), stats.F(lo), stats.F(hi), stats.F(s.Min), stats.F(s.Max),
				stats.I(outside))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// InteractionConcentrationDef is E7: Lemma 3.6 — in C·ln n time no agent
// has more than D·ln n = (2C+√12C)·ln n interactions, w.p. >= 1 − 1/n. It
// needs per-agent interaction counts, which only the sequential engine
// provides, so its trials ignore the env's backend selection.
func InteractionConcentrationDef(env Env, ns []int, trials int) Def {
	const c = 3.0
	d := prob.InteractionCountD(c)
	const id = "E7"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				s := pop.New(n, func(int, *rand.Rand) struct{} { return struct{}{} },
					func(a, b struct{}, _ *rand.Rand) (struct{}, struct{}) { return a, b },
					pop.WithSeed(seed), pop.WithInteractionCounts())
				s.RunTime(c * math.Log(float64(n)))
				return sweep.Values{"maxcount": float64(s.MaxInteractionCount())}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title:   fmt.Sprintf("E7: interaction concentration (Lemma 3.6, C = %.0f, D = %.2f)", c, d),
			Columns: []string{"n", "trials", "window C·ln n", "max count seen", "bound D·ln n", "violations"},
		}
		for _, n := range ns {
			window := c * math.Log(float64(n))
			bound := d * math.Log(float64(n))
			maxes := res.Values(id, n, "maxcount")
			viol := 0
			for _, m := range maxes {
				if m > bound {
					viol++
				}
			}
			s := stats.Summarize(maxes)
			t.AddRow(stats.I(n), stats.I(trials), stats.F(window), stats.F(s.Max),
				stats.F(bound), stats.I(viol))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// AblationClockFactorDef is A1: sweep the per-epoch threshold multiplier.
func AblationClockFactorDef(env Env, n int, factors []int, trials int) Def {
	const id = "A1"
	var points []sweep.Point
	for _, f := range factors {
		cfg := core.FastConfig()
		cfg.ClockFactor = f
		p := core.MustNew(cfg)
		points = append(points, sweep.Point{
			Experiment: fmt.Sprintf("%s/cf=%d", id, f), N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				r := p.Run(n, env.runOptions(seed))
				return sweep.Values{"err": r.MaxErr, "time": r.Time}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: fmt.Sprintf("A1: clock-factor ablation at n = %d (paper: 95)", n),
			Note: "Small factors end epochs before the max-gr epidemic completes, " +
				"inflating error; large factors only cost time.",
			Columns: []string{"clock factor", "err mean", "err max", "time mean"},
		}
		for _, f := range factors {
			exp := fmt.Sprintf("%s/cf=%d", id, f)
			es := stats.Summarize(res.Values(exp, n, "err"))
			ts := stats.Summarize(res.Values(exp, n, "time"))
			t.AddRow(stats.I(f), stats.F(es.Mean), stats.F(es.Max), stats.F(ts.Mean))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// AblationEpochFactorDef is A2: sweep K = factor·L against Corollary
// D.10's K >= 4·log n requirement.
func AblationEpochFactorDef(env Env, n int, factors []int, trials int) Def {
	const id = "A2"
	var points []sweep.Point
	for _, f := range factors {
		cfg := core.FastConfig()
		cfg.EpochFactor = f
		p := core.MustNew(cfg)
		points = append(points, sweep.Point{
			Experiment: fmt.Sprintf("%s/ef=%d", id, f), N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				r := p.Run(n, env.runOptions(seed))
				return sweep.Values{
					"err":  r.MaxErr,
					"k":    float64(cfg.EpochTarget(uint8(r.LogSize2))),
					"time": r.Time,
				}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: fmt.Sprintf("A2: epoch-factor ablation at n = %d (paper: 5; Cor D.10 needs K >= 4 log n)", n),
			Note: "Fewer epochs mean fewer samples in the average: error variance grows " +
				"as the factor shrinks.",
			Columns: []string{"epoch factor", "K (typ.)", "err mean", "err std", "time mean"},
		}
		for _, f := range factors {
			exp := fmt.Sprintf("%s/ef=%d", id, f)
			es := stats.Summarize(res.Values(exp, n, "err"))
			ts := stats.Summarize(res.Values(exp, n, "time"))
			ks := stats.Summarize(res.Values(exp, n, "k"))
			t.AddRow(stats.I(f), stats.F(ks.Mean), stats.F(es.Mean), stats.F(es.Std), stats.F(ts.Mean))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// AblationNoRestartDef is A3: disable the restart scheme and show the
// error blow-up (agents keep progress made under stale, too-small
// estimates).
func AblationNoRestartDef(env Env, n int, trials int) Def {
	const id = "A3"
	labels := map[bool]string{false: "on", true: "off"}
	var points []sweep.Point
	for _, disable := range []bool{false, true} {
		cfg := core.FastConfig()
		cfg.DisableRestart = disable
		p := core.MustNew(cfg)
		points = append(points, sweep.Point{
			Experiment: fmt.Sprintf("%s/restart=%s", id, labels[disable]), N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				r := p.Run(n, env.runOptions(seed))
				return sweep.Values{"err": r.MaxErr, "converged": sweep.Bool(r.Converged)}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title:   fmt.Sprintf("A3: restart-scheme ablation at n = %d", n),
			Columns: []string{"restart", "err mean", "err max", "converged"},
		}
		for _, disable := range []bool{false, true} {
			exp := fmt.Sprintf("%s/restart=%s", id, labels[disable])
			conv := 0
			for _, c := range res.Values(exp, n, "converged") {
				if c == 1 {
					conv++
				}
			}
			s := stats.Summarize(res.Values(exp, n, "err"))
			t.AddRow(labels[disable], stats.F(s.Mean), stats.F(s.Max),
				fmt.Sprintf("%d/%d", conv, trials))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}
