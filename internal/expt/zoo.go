package expt

import (
	"fmt"
	"math"
	"sync"

	"github.com/popsim/popsize/internal/protocol"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

// zooRun adapts a registry protocol into a sweep trial function, bound to
// the def's env like every other trial closure. The runner is still built
// lazily on first trial — table compilation is pure setup cost a def that
// never runs (resolved but filtered, or resumed from a checkpoint)
// shouldn't pay. Registry protocols report failures through Config.OnError
// only for instrumented runs, which the defs never request, so a lookup
// or compile failure here is a programming error and panics like
// runLocal's impossible errors do.
func zooRun(env Env, name string, n, trials int) sweep.TrialFunc {
	runner := sync.OnceValues(func() (*protocol.Runner, error) {
		info, err := protocol.Lookup(name)
		if err != nil {
			return nil, err
		}
		return info.New(protocol.Config{
			N: n, Trials: trials,
			Backend: env.Backend,
		})
	})
	return func(tr int, seed uint64) sweep.Values {
		r, err := runner()
		if err != nil {
			panic(fmt.Sprintf("expt: zoo protocol %s: %v", name, err))
		}
		return r.Run(tr, seed)
	}
}

// ZooJuntaDef is E-junta: the phase-clock junta election from the protocol
// zoo — junta size (agents at the maximum geometric level) and settling
// door vs n. The junta is what phase-clock constructions hand their clock
// to; its size should stay polylogarithmic while maxlevel tracks log2 n.
func ZooJuntaDef(env Env, ns []int, trials int) Def {
	const id = "E-junta"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials, Run: zooRun(env, "junta", n, trials),
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E-junta: junta election via geometric levels and door-gated counters (table-compiled zoo)",
			Note: "junta = agents at the maximum level once every counter settles at one door; " +
				"expected size is O(polylog n) with maxlevel ≈ log2 n.",
			Columns: []string{"n", "converged", "junta mean", "junta max", "maxlevel mean", "log2(n)", "door mean", "time mean"},
		}
		for _, n := range ns {
			conv := stats.Summarize(res.Values(id, n, "converged"))
			junta := stats.Summarize(res.Values(id, n, "junta"))
			lvl := stats.Summarize(res.Values(id, n, "maxlevel"))
			door := stats.Summarize(res.Values(id, n, "door"))
			tm := stats.Summarize(res.Values(id, n, "time"))
			t.AddRow(stats.I(n),
				fmt.Sprintf("%.0f/%d", conv.Mean*float64(trials), trials),
				stats.F(junta.Mean), stats.I(int(junta.Max)),
				stats.F(lvl.Mean), stats.F(math.Log2(float64(n))),
				stats.F(door.Mean), stats.F(tm.Mean))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// ZooRepeatMajorityDef is E-repmaj: the undecided-state ("?") majority
// building block from a 52/48 split — does the true majority win, and in
// what parallel time?
func ZooRepeatMajorityDef(env Env, ns []int, trials int) Def {
	const id = "E-repmaj"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials, Run: zooRun(env, "repeatmajority", n, trials),
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E-repmaj: undecided-state majority from a 52/48 split (table-compiled zoo)",
			Note: "correct = the initial 52% opinion took the whole population; \"?\" relays opinions " +
				"but never destroys them, so close splits converge slower than approximate majority.",
			Columns: []string{"n", "converged", "correct", "time mean", "time std"},
		}
		for _, n := range ns {
			conv := stats.Summarize(res.Values(id, n, "converged"))
			correct := stats.Summarize(res.Values(id, n, "correct"))
			tm := stats.Summarize(res.Values(id, n, "time"))
			t.AddRow(stats.I(n),
				fmt.Sprintf("%.0f/%d", conv.Mean*float64(trials), trials),
				fmt.Sprintf("%.0f/%d", correct.Mean*float64(trials), trials),
				stats.F(tm.Mean), stats.F(tm.Std))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// ZooBKRCountDef is E-bkr: Berenbrink–Kaaser–Radzik approximate counting —
// max-propagated geometric levels plus a duplicate flag — whose estimate
// should land within O(1) of log2 n.
func ZooBKRCountDef(env Env, ns []int, trials int) Def {
	const id = "E-bkr"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials, Run: zooRun(env, "bkrcount", n, trials),
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title:   "E-bkr: Berenbrink–Kaaser–Radzik counting via max geometric level + duplicate flag (table-compiled zoo)",
			Note:    "estimate = agreed maximum level + duplicate bit; the first-phase bound is |estimate − log2 n| = O(1) w.h.p.",
			Columns: []string{"n", "converged", "estimate mean", "estimate std", "log2(n)", "abs err mean", "time mean"},
		}
		for _, n := range ns {
			logN := math.Log2(float64(n))
			conv := stats.Summarize(res.Values(id, n, "converged"))
			ests := res.Values(id, n, "estimate")
			errs := make([]float64, len(ests))
			for i, e := range ests {
				errs[i] = math.Abs(e - logN)
			}
			es := stats.Summarize(ests)
			tm := stats.Summarize(res.Values(id, n, "time"))
			t.AddRow(stats.I(n),
				fmt.Sprintf("%.0f/%d", conv.Mean*float64(trials), trials),
				stats.F(es.Mean), stats.F(es.Std), stats.F(logN),
				stats.F(stats.Summarize(errs).Mean), stats.F(tm.Mean))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}
