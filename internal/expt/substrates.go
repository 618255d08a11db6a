package expt

import (
	"math"
	"math/rand/v2"

	"github.com/popsim/popsize/internal/epidemic"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/prob"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

// EpidemicDef is E6: completion times of full-population and
// n/3-subpopulation epidemics vs Lemma A.1 / Corollary 3.5. The two
// sub-experiments are separate sweep points ("E6/full", "E6/sub"), so
// their trials parallelize independently and draw independent seeds.
func EpidemicDef(env Env, ns []int, trials int) Def {
	const id = "E6"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points,
			sweep.Point{
				Experiment: id + "/full", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					s := epidemic.NewEngine(n, 1, pop.WithSeed(seed), env.engineOpt())
					at, ok := epidemic.CompletionTime(s, 1e6)
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"time": at}
				},
			},
			sweep.Point{
				Experiment: id + "/sub", N: n, Trials: trials,
				Run: func(tr int, seed uint64) sweep.Values {
					s := epidemic.NewSubpopEngine(n, n/3, 1, pop.WithSeed(seed), env.engineOpt())
					at, ok := epidemic.CompletionTime(s, 1e7)
					if !ok {
						at = math.NaN()
					}
					return sweep.Values{"time": at}
				},
			})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E6: epidemic completion time (Lemma A.1; Cor 3.5 subpopulation bound 24 ln n)",
			Columns: []string{"n", "E[T] = H(n−1)", "full mean", "full max",
				"sub(n/3) mean", "sub max", "24 ln n", "sub > bound"},
		}
		for _, n := range ns {
			full := res.Values(id+"/full", n, "time")
			sub := res.Values(id+"/sub", n, "time")
			bound := 24 * math.Log(float64(n))
			over := 0
			for _, v := range sub {
				if v > bound {
					over++
				}
			}
			fs, ss := stats.Summarize(full), stats.Summarize(sub)
			t.AddRow(stats.I(n), stats.F(prob.ExpectedEpidemicTime(n)),
				stats.F(fs.Mean), stats.F(fs.Max), stats.F(ss.Mean), stats.F(ss.Max),
				stats.F(bound), stats.I(over))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// MaxGeometricDef is E8: expectation and tails of the maximum of N
// geometric random variables vs Lemma D.4 / Lemma D.7 / Corollary D.6.
// Each population size is one single-trial point whose trial draws all
// `samples` IID maxima from its derived seed.
func MaxGeometricDef(env Env, ns []int, samples int) Def {
	const id = "E8"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: 1,
			Run: func(tr int, seed uint64) sweep.Values {
				r := rand.New(rand.NewPCG(seed, 99))
				sum := 0.0
				upper, lower := 0, 0
				logN := math.Log2(float64(n))
				loThr := logN - math.Log2(math.Log(float64(n)))
				for i := 0; i < samples; i++ {
					m := float64(prob.MaxGeometric(r, n))
					sum += m
					if m >= 2*logN {
						upper++
					}
					if m <= loThr {
						lower++
					}
				}
				return sweep.Values{
					"mean":  sum / float64(samples),
					"upper": float64(upper),
					"lower": float64(lower),
				}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E8: max of N geometric RVs (Lemma D.4: log N + 1 < E[M] < log N + 3/2; Lemma D.7 tails)",
			Note: "Lemma D.7 states 1/N bounds under the convention Pr[G >= t] = 2^(−t); " +
				"with the flips-including-the-head convention used here (Pr[G >= t] = " +
				"2^(−t+1)) the exact upper tail is 2/N, which is what the measurements track.",
			Columns: []string{"N", "E[M] lo", "mean", "E[M] hi",
				"Pr[M >= 2 log N]", "bound 2/N", "Pr[M <= log N − log ln N]", "bound 1/N"},
		}
		for _, n := range ns {
			rec, _ := res.Get(id, n, 0)
			lo, hi := prob.MaxGeomExpectationBounds(n)
			t.AddRow(stats.I(n), stats.F(lo), stats.F(rec.Values["mean"]), stats.F(hi),
				stats.F(rec.Values["upper"]/float64(samples)), stats.F(2/float64(n)),
				stats.F(rec.Values["lower"]/float64(samples)), stats.F(1/float64(n)))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// SumOfMaximaDef is E9: Corollary D.10 — the average of K = 4 log N maxima
// is within 4.7 of log N except with probability <= 2/N.
func SumOfMaximaDef(env Env, ns []int, samples int) Def {
	const id = "E9"
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: 1,
			Run: func(tr int, seed uint64) sweep.Values {
				k := prob.CorD10MinK(n)
				r := rand.New(rand.NewPCG(seed, 7))
				logN := math.Log2(float64(n))
				devSum, devMax := 0.0, 0.0
				viol := 0
				for i := 0; i < samples; i++ {
					s := prob.SumOfMaxima(r, k, n)
					dev := math.Abs(float64(s)/float64(k) - logN)
					devSum += dev
					devMax = math.Max(devMax, dev)
					if dev >= 4.7 {
						viol++
					}
				}
				return sweep.Values{
					"meandev": devSum / float64(samples),
					"maxdev":  devMax,
					"viol":    float64(viol),
				}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title:   "E9: sums of maxima Chernoff (Cor D.10: |S/K − log N| < 4.7 w.p. >= 1 − 2/N)",
			Columns: []string{"N", "K", "mean |S/K − log N|", "max", "violations", "bound 2/N × samples"},
		}
		for _, n := range ns {
			rec, _ := res.Get(id, n, 0)
			t.AddRow(stats.I(n), stats.I(prob.CorD10MinK(n)), stats.F(rec.Values["meandev"]),
				stats.F(rec.Values["maxdev"]), stats.I(int(rec.Values["viol"])),
				stats.F(prob.CorD10Bound(n)*float64(samples)))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}

// DepletionDef is E10: Lemma E.2 / Corollary E.3 — a state starting at
// count k cannot fall below k/81 within one time unit (empirically, its
// minimum over the window vs the paper's bound).
func DepletionDef(env Env, ns []int, trials int) Def {
	const id = "E10"
	// consume flips tracked agents to the dead state on every interaction:
	// the harshest consumption rate the lemma's coupling allows.
	consume := func(rec, sen bool, _ *rand.Rand) (bool, bool) { return false, false }
	var points []sweep.Point
	for _, n := range ns {
		points = append(points, sweep.Point{
			Experiment: id, N: n, Trials: trials,
			Run: func(tr int, seed uint64) sweep.Values {
				k := n / 2
				s := pop.NewEngine(n, func(i int, _ *rand.Rand) bool { return i < k }, consume,
					pop.WithSeed(seed), env.engineOpt())
				minFrac := 1.0
				for step := 0; step < 20; step++ {
					s.RunTime(0.05)
					f := float64(s.Count(func(b bool) bool { return b })) / float64(k)
					minFrac = math.Min(minFrac, f)
				}
				return sweep.Values{"minfrac": minFrac}
			},
		})
	}
	render := func(res *sweep.Results) stats.Table {
		t := stats.Table{
			Title: "E10: state depletion (Cor E.3: count stays > k/81 for 1 time unit w.p. >= 1 − 2^(−k/81))",
			Note: "Worst-case consumer: every interaction converts both participants. " +
				"k = n/2 agents start in the tracked state.",
			Columns: []string{"n", "k", "min fraction seen", "k/81 fraction", "violations"},
		}
		for _, n := range ns {
			mins := res.Values(id, n, "minfrac")
			viol := 0
			for _, m := range mins {
				if m <= 1.0/81 {
					viol++
				}
			}
			s := stats.Summarize(mins)
			t.AddRow(stats.I(n), stats.I(n/2), stats.F(s.Min), stats.F(1.0/81), stats.I(viol))
		}
		return t
	}
	return Def{ID: id, Env: env, Points: points, Render: render}
}
