// Package expt defines the experiment generators behind DESIGN.md's
// per-experiment index (F2, E1–E18, A1–A3). Each experiment is a Def:
// declarative sweep points (one trial function per grid cell) plus a
// renderer from the recorded trials to a stats.Table. Point construction
// binds an explicit engine Env (backend, trajectory instrumentation) into
// the trial closures — the package keeps no process-wide engine state —
// so suites bound to different Envs run concurrently in one process.
// cmd/experiments submits every selected Def into one sweep queue,
// streams JSONL records, and renders the tables; the root benchmarks
// re-run the generators at reduced scale.
package expt

import (
	"fmt"
	"math"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

// Fig2Def is F2: convergence time of Log-Size-Estimation vs population
// size, `trials` runs per size. Convergence follows the paper's caption
// (all agents reach epoch = K) plus output delivery, and the per-trial
// estimate error is recorded alongside (the caption's "in practice the
// estimate is always within 2").
func Fig2Def(env Env, cfg core.Config, ns []int, trials int) Def {
	p := core.MustNew(cfg)
	const id = "F2"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				r, err := env.RunCore(p, n, fmt.Sprintf("F2-n%d-t%d", n, tr), env.runOptions(seed))
				if err != nil {
					// Artifact-file I/O only (the Result itself is valid);
					// a worker goroutine has nowhere to return it.
					panic(fmt.Sprintf("expt: F2 trajectory artifact: %v", err))
				}
				t := r.Time
				if !r.Converged {
					t = math.NaN()
				}
				return sweep.Values{"time": t, "err": r.MaxErr}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "F2: Figure 2 — convergence time vs population size",
			Note: "Convergence = all agents reach epoch = K with a common logSize2 and hold " +
				"an output. Parallel time units (interactions/n).",
			Columns: []string{"n", "log2 n", "trials", "time mean", "time min", "time max",
				"time/log² n", "max |err|", "errs > 2"},
		}
		for _, n := range ns {
			times := res.Values(id, n, "time")
			over2 := 0
			maxErr := 0.0
			for _, e := range res.Values(id, n, "err") {
				if e > 2 {
					over2++
				}
				maxErr = math.Max(maxErr, e)
			}
			sum := stats.Summarize(times)
			logN := math.Log2(float64(n))
			t.AddRow(stats.I(n), stats.F(logN), stats.I(trials),
				stats.F(sum.Mean), stats.F(sum.Min), stats.F(sum.Max),
				stats.F(sum.Mean/(logN*logN)), stats.F(maxErr), stats.I(over2))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// Fig2Points extracts the Figure 2 scatter (per-trial convergence time vs
// n) from a sweep's results.
func Fig2Points(res *sweep.Results, ns []int) []stats.Point {
	var pts []stats.Point
	for _, n := range ns {
		for _, t := range res.Values("F2", n, "time") {
			pts = append(pts, stats.Point{X: float64(n), Y: t})
		}
	}
	return pts
}
