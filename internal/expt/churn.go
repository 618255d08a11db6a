package expt

import (
	"fmt"
	"math"

	"github.com/popsim/popsize/internal/churn"
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

// settleErrTol is the |estimate − log2 n| tolerance that counts as
// "settled" after a detected size change — comfortably inside the
// protocol's own error bound, comfortably outside the 1-bit gap a
// doubling opens.
const settleErrTol = 4.0

// ChurnTrackingDef is E-churn: tracking error of the detect-and-restart
// dynamic estimator (internal/churn) under lockstep membership turnover,
// swept over churn rate × n. Each trial runs churn.Track on a Step
// schedule (rate·n agents replaced per unit of parallel time, population
// size constant) and reports the tracking error over the settled window —
// the second half of the run, after the initial convergence has had twice
// its expected time. Trials whose tracker never held an estimate in the
// window report NaN and are counted as dropped by the aggregation.
func ChurnTrackingDef(env Env, cfg core.Config, ns []int, rates []float64, trials int) Def {
	p := core.MustNew(cfg)
	const id = "E-churn"
	var points []sweep.Point
	for _, rate := range rates {
		for _, n := range ns {
			warm := p.DefaultMaxTime(n) / 3
			until := 1.5 * warm
			period := math.Max(1, math.Log2(float64(n)))
			points = append(points, sweep.Point{
				Experiment: churnLabel(id, rate), N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					sched := churn.Step(n, rate, period, until)
					res := churn.Track(
						churn.TrackerConfig{Protocol: cfg, Backend: env.Backend},
						n, sched, seed, until)
					mean, maxv, _ := res.ErrStats(warm)
					return sweep.Values{
						"err":      mean,
						"maxerr":   maxv,
						"restarts": float64(res.Restarts),
					}
				},
			})
		}
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E-churn: dynamic-estimator tracking error vs membership turnover rate (arXiv:2405.05137 regime)",
			Note: "Step churn replaces rate·n agents per unit of parallel time at constant n; " +
				"err aggregates |estimate − log2 n| over the settled window; dropped trials never held an estimate.",
			Columns: []string{"rate", "n", "tracked", "err mean", "err std", "err max", "restarts mean"},
		}
		for _, rate := range rates {
			for _, n := range ns {
				exp := churnLabel(id, rate)
				errs := finite(res.Values(exp, n, "err"))
				maxes := finite(res.Values(exp, n, "maxerr"))
				rs := stats.Summarize(res.Values(exp, n, "restarts"))
				es := stats.Summarize(errs)
				t.AddRow(fmt.Sprintf("%g", rate), stats.I(n),
					fmt.Sprintf("%d/%d", len(errs), trials),
					stats.F(es.Mean), stats.F(es.Std), stats.F(stats.Summarize(maxes).Max),
					stats.F(rs.Mean))
			}
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// ChurnDetectionDef is E-churn-detect: latency of the dynamic estimator's
// detect-and-restart loop after a population doubling. The doubling lands
// once the initial run has converged w.h.p.; "detect" is the parallel
// time from the doubling to the first tracker restart (the join wave
// tripping the undecided-fraction signal), "settle" the further time
// until the estimate is back within tolerance of log2(2n).
func ChurnDetectionDef(env Env, cfg core.Config, ns []int, trials int) Def {
	p := core.MustNew(cfg)
	const id = "E-churn-detect"
	var points []sweep.Point
	for _, n := range ns {
		t0 := p.DefaultMaxTime(n) / 2
		until := t0 + p.DefaultMaxTime(2*n)/2
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				res := churn.Track(
					churn.TrackerConfig{Protocol: cfg, Backend: env.Backend},
					n, churn.Doubling(n, t0), seed, until)
				detect, settle := res.DetectionLatency(t0, settleErrTol)
				return sweep.Values{
					"detect":   detect,
					"settle":   settle,
					"restarts": float64(res.Restarts),
				}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E-churn-detect: detection and re-convergence latency after a population doubling",
			Note: "detect = doubling → first restart (undecided-fraction signal); settle = doubling → " +
				fmt.Sprintf("a post-restart estimate adopted within %.1f of log2(2n); both in parallel time.", settleErrTol),
			Columns: []string{"n", "detected", "settled", "detect mean", "settle mean", "log2 n"},
		}
		for _, n := range ns {
			dets := finite(res.Values(id, n, "detect"))
			sets := finite(res.Values(id, n, "settle"))
			t.AddRow(stats.I(n),
				fmt.Sprintf("%d/%d", len(dets), trials),
				fmt.Sprintf("%d/%d", len(sets), trials),
				stats.F(stats.Summarize(dets).Mean),
				stats.F(stats.Summarize(sets).Mean),
				stats.F(math.Log2(float64(n))))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// churnLabel names one churn-rate sub-configuration of E-churn; the rate
// folds into the experiment label so the sweep's per-(experiment, n)
// aggregation yields per-(rate, n) summary rows.
func churnLabel(id string, rate float64) string {
	return fmt.Sprintf("%s/rate=%g", id, rate)
}

// finite filters NaN (and ±Inf) out of a value slice, for renderers that
// summarize only the trials that produced a measurement.
func finite(xs []float64) []float64 {
	out := xs[:0:0]
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}
