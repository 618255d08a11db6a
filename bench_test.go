// Benchmarks: one per experiment row of DESIGN.md's index (F2, E1–E18,
// A1–A3, E-churn), each exercising the same generator the experiment harness uses,
// at benchmark-friendly scale. Domain metrics (parallel time units,
// estimate error, states) are attached via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates a miniature of every table and
// figure in the paper's evaluation.
package popsize

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/popsim/popsize/internal/approxsize"
	"github.com/popsim/popsize/internal/arith"
	"github.com/popsim/popsize/internal/churn"
	"github.com/popsim/popsize/internal/clock"
	"github.com/popsim/popsize/internal/compose"
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/epidemic"
	"github.com/popsim/popsize/internal/exactcount"
	"github.com/popsim/popsize/internal/leaderelect"
	"github.com/popsim/popsize/internal/leaderterm"
	"github.com/popsim/popsize/internal/majority"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/prob"
	"github.com/popsim/popsize/internal/producible"
	"github.com/popsim/popsize/internal/synthcoin"
	"github.com/popsim/popsize/internal/term"
	"github.com/popsim/popsize/internal/upperbound"
)

// BenchmarkEngineStep measures raw scheduler+rule throughput (interactions
// per second) on the main protocol — the cost driver of every experiment.
func BenchmarkEngineStep(b *testing.B) {
	p := core.MustNew(core.FastConfig())
	s := pop.New(10000, p.Initial, p.Rule, pop.WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// warmedConfigs caches steady-state core-protocol configurations per
// population size for the backend benchmarks: the interesting regime is
// mid-run (epochs ticking, states churning), not the cold start, and
// warming once per process keeps the benchmark setup affordable. The
// configuration is kept as a state-count multiset so the cache works at
// populations far beyond an agent array (warming runs on the dense
// engine, the fastest at scale); warmedMu guards it because benchmark
// iterations may run on fresh goroutines, so an unguarded lazy map would
// trip `go test -race -bench`.
var (
	warmedMu      sync.Mutex
	warmedConfigs = map[int]warmedMultiset{}
)

type warmedMultiset struct {
	states []core.State
	counts []int64
}

func warmedConfig(b *testing.B, n int) warmedMultiset {
	warmedMu.Lock()
	defer warmedMu.Unlock()
	return warmedConfigLocked(n)
}

func warmedConfigLocked(n int) warmedMultiset {
	if cfg, ok := warmedConfigs[n]; ok {
		return cfg
	}
	p := core.MustNew(core.FastConfig())
	// Every agent starts in the same state (core.Initial is agent-
	// independent), so the initial multiset is a single entry and warming
	// involves no agent-sized work at any n. Reaching steady state from
	// cold costs Θ(t·n) interactions through the protocol's mid-run state
	// churn, which no engine simulates cheaply — affordable up to 10⁸
	// (minutes, once per process). At 10⁹ the churn alone would be
	// ~10¹⁰ interactions, so that configuration is derived instead: the
	// 10⁸ steady multiset scaled ×10 and settled for one time unit, a
	// representative dense configuration at 10⁹ for engine comparison.
	var e *pop.DenseSim[core.State]
	if n >= 1_000_000_000 {
		base := warmedConfigLocked(n / 10)
		counts := make([]int64, len(base.counts))
		for i, c := range base.counts {
			counts[i] = c * 10
		}
		e = pop.NewDenseFromCounts(base.states, counts, p.Rule, pop.WithSeed(7))
		e.RunTime(1)
	} else {
		e = pop.NewDenseFromCounts([]core.State{core.Initial()}, []int64{int64(n)},
			p.Rule, pop.WithSeed(7))
		if n >= 100_000_000 {
			e.RunTime(45)
		} else {
			e.RunTime(60)
		}
	}
	// Cache the states in cmpState order, not map order: the engines
	// intern states in the order given, so a map-ordered configuration
	// would start each process's benchmark on a different trajectory.
	counts := e.Counts()
	var cfg warmedMultiset
	for st := range counts {
		cfg.states = append(cfg.states, st)
	}
	slices.SortFunc(cfg.states, cmpState)
	for _, st := range cfg.states {
		cfg.counts = append(cfg.counts, int64(counts[st]))
	}
	warmedConfigs[n] = cfg
	return cfg
}

// cmpState is a field-wise total order on core.State.
func cmpState(a, b core.State) int {
	bit := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return cmp.Or(
		cmp.Compare(a.Role, b.Role),
		cmp.Compare(a.LogSize2, b.LogSize2),
		cmp.Compare(a.GR, b.GR),
		cmp.Compare(a.Time, b.Time),
		cmp.Compare(a.Epoch, b.Epoch),
		cmp.Compare(a.Sum, b.Sum),
		cmp.Compare(bit(a.Done), bit(b.Done)),
		cmp.Compare(bit(a.HasOutput), bit(b.HasOutput)),
		cmp.Compare(a.OutSum, b.OutSum),
		cmp.Compare(a.OutK, b.OutK),
	)
}

// BenchmarkEngineInteractions is the core-protocol backend comparison:
// ns/interaction for each engine on identical steady-state configurations
// at n >= 10⁵. The batched engine's advantage over sequential grows with
// n as the agent array falls out of cache (~1.3× at n = 10⁵, ~3× at 10⁶,
// ~6× at 10⁷); the dense engine's pair-matrix batches pull ahead of
// batch's per-slot sampling as batches lengthen relative to the live-
// state count — measured ~5% at 10⁷, ~15% at 10⁸ and ~1.8× at 10⁹
// (23 vs 43 ns/interaction) on an otherwise idle 2.1 GHz Xeon. The
// sequential rows stop at 10⁷: at 10⁸ its agent array is 2 GB of
// random-access memory traffic, and at 10⁹ it cannot reasonably be
// constructed at all, while the multiset engines carry the same
// configuration in a few kilobytes. Run with a large fixed -benchtime
// (e.g. -benchtime=20000000x) for stable numbers; -short skips every
// population size above 10⁶ (the 10⁸⁺ rows warm for minutes, see
// warmedConfig).
func BenchmarkEngineInteractions(b *testing.B) {
	p := core.MustNew(core.FastConfig())
	all := []pop.Backend{pop.Sequential, pop.Batched, pop.Dense}
	for _, row := range []struct {
		n        int
		backends []pop.Backend
	}{
		{100000, all},
		{1000000, all},
		{10000000, all},
		{100000000, []pop.Backend{pop.Batched, pop.Dense}},
		{1000000000, []pop.Backend{pop.Batched, pop.Dense}},
	} {
		if testing.Short() && row.n > 1000000 {
			continue
		}
		for _, backend := range row.backends {
			b.Run(fmt.Sprintf("%v/n=%d", backend, row.n), func(b *testing.B) {
				// Warming inside the sub-benchmark (excluded from the
				// timing below) so -bench filters only pay for the sizes
				// they select.
				cfg := warmedConfig(b, row.n)
				e := pop.NewEngineFromCounts(cfg.states, cfg.counts, p.Rule,
					pop.WithSeed(9), pop.WithBackend(backend))
				b.ResetTimer()
				e.Run(int64(b.N))
			})
		}
	}
}

// BenchmarkCoreConvergence runs the protocol to convergence at n = 10⁵ on
// each backend — the end-to-end wall-clock comparison behind the
// experiment harness's -backend flag. Skipped in -short mode (a
// sequential convergence run at this size takes on the order of a
// minute).
func BenchmarkCoreConvergence(b *testing.B) {
	if testing.Short() {
		b.Skip("full convergence runs are not short")
	}
	p := core.MustNew(core.FastConfig())
	const n = 100000
	for _, backend := range []pop.Backend{pop.Sequential, pop.Batched, pop.Dense} {
		b.Run(backend.String(), func(b *testing.B) {
			var t float64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				r := p.Run(n, core.RunOptions{Seed: uint64(i) + 1, Backend: backend})
				if !r.Converged {
					b.Fatal("did not converge")
				}
				t += r.Time
			}
			// Convergence time varies a lot across seeds (and backends
			// take different random trajectories), so wall-clock per
			// iteration is noisy at small b.N; ns/interaction is the
			// stable backend comparison.
			b.ReportMetric(t/float64(b.N), "paralleltime")
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/(t*n), "ns/interaction")
		})
	}
}

// BenchmarkFig2Convergence is F2/E2 at n = 1000: one full protocol run per
// iteration; reports parallel-time units and time/log²n.
func BenchmarkFig2Convergence(b *testing.B) {
	p := core.MustNew(core.FastConfig())
	const n = 1000
	var t, errSum float64
	for i := 0; i < b.N; i++ {
		r := p.Run(n, core.RunOptions{Seed: uint64(i)})
		t += r.Time
		errSum += r.MaxErr
	}
	logN := math.Log2(n)
	b.ReportMetric(t/float64(b.N), "paralleltime")
	b.ReportMetric(t/float64(b.N)/(logN*logN), "time/log²n")
	b.ReportMetric(errSum/float64(b.N), "abs_err")
}

// BenchmarkErrorDistribution is E1 at n = 500.
func BenchmarkErrorDistribution(b *testing.B) {
	p := core.MustNew(core.FastConfig())
	var worst float64
	for i := 0; i < b.N; i++ {
		r := p.Run(500, core.RunOptions{Seed: uint64(i) * 7919})
		worst = math.Max(worst, r.MaxErr)
	}
	b.ReportMetric(worst, "max_abs_err")
}

// BenchmarkStateCount is E3: distinct states per run at n = 1000.
func BenchmarkStateCount(b *testing.B) {
	p := core.MustNew(core.FastConfig())
	var states float64
	for i := 0; i < b.N; i++ {
		r := p.Run(1000, core.RunOptions{Seed: uint64(i), TrackStates: true})
		states += float64(r.DistinctStates)
	}
	l4 := math.Pow(math.Log2(1000), 4)
	b.ReportMetric(states/float64(b.N), "states")
	b.ReportMetric(states/float64(b.N)/l4, "states/log⁴n")
}

// BenchmarkPartition is E4: |A| deviation from n/2 at n = 10000.
func BenchmarkPartition(b *testing.B) {
	p := core.MustNew(core.FastConfig())
	const n = 10000
	var dev float64
	for i := 0; i < b.N; i++ {
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(uint64(i)))
		s.RunTime(8 * math.Log2(n))
		a := s.Count(func(st core.State) bool { return st.Role == core.RoleA })
		dev += math.Abs(float64(a) - n/2)
	}
	b.ReportMetric(dev/float64(b.N), "abs_dev")
}

// BenchmarkLogSize2Range is E5 at n = 10000.
func BenchmarkLogSize2Range(b *testing.B) {
	p := core.MustNew(core.FastConfig())
	const n = 10000
	var v float64
	for i := 0; i < b.N; i++ {
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(uint64(i)))
		s.RunTime(10 * math.Log2(n))
		v += float64(s.Agent(0).LogSize2) + 2
	}
	b.ReportMetric(v/float64(b.N), "logSize2_eff")
}

// BenchmarkEpidemic is E6: full-population epidemic completion at n = 10000.
func BenchmarkEpidemic(b *testing.B) {
	const n = 10000
	var t float64
	for i := 0; i < b.N; i++ {
		s := epidemic.NewEngine(n, 1, pop.WithSeed(uint64(i)), pop.WithBackend(pop.Sequential))
		at, _ := epidemic.CompletionTime(s, 1e6)
		t += at
	}
	b.ReportMetric(t/float64(b.N), "paralleltime")
	b.ReportMetric(t/float64(b.N)/prob.ExpectedEpidemicTime(n), "time/E[T]")
}

// BenchmarkInteractionConcentration is E7 at n = 10000.
func BenchmarkInteractionConcentration(b *testing.B) {
	const n = 10000
	var worst float64
	for i := 0; i < b.N; i++ {
		s := pop.New(n, func(int, *rand.Rand) struct{} { return struct{}{} },
			func(x, y struct{}, _ *rand.Rand) (struct{}, struct{}) { return x, y },
			pop.WithSeed(uint64(i)), pop.WithInteractionCounts())
		s.RunTime(3 * math.Log(n))
		worst = math.Max(worst, float64(s.MaxInteractionCount()))
	}
	b.ReportMetric(worst/math.Log(n), "max_count/ln_n")
}

// BenchmarkMaxGeometric is E8: sampling the maximum of 10⁴ geometrics.
func BenchmarkMaxGeometric(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += float64(prob.MaxGeometric(r, 10000))
	}
	b.ReportMetric(sum/float64(b.N), "mean_max")
}

// BenchmarkSumOfMaxima is E9: one Corollary D.10 sample (K = 4 log N).
func BenchmarkSumOfMaxima(b *testing.B) {
	r := rand.New(rand.NewPCG(3, 4))
	const n = 10000
	k := prob.CorD10MinK(n)
	var dev float64
	for i := 0; i < b.N; i++ {
		s := prob.SumOfMaxima(r, k, n)
		dev += math.Abs(float64(s)/float64(k) - math.Log2(n))
	}
	b.ReportMetric(dev/float64(b.N), "abs_dev")
}

// BenchmarkDepletion is E10: worst-case state consumption over one time
// unit at n = 10000.
func BenchmarkDepletion(b *testing.B) {
	const n = 10000
	consume := func(x, y bool, _ *rand.Rand) (bool, bool) { return false, false }
	var minFrac float64 = 1
	for i := 0; i < b.N; i++ {
		s := pop.New(n, func(j int, _ *rand.Rand) bool { return j < n/2 }, consume,
			pop.WithSeed(uint64(i)))
		s.RunTime(1)
		f := float64(s.Count(func(x bool) bool { return x })) / float64(n/2)
		minFrac = math.Min(minFrac, f)
	}
	b.ReportMetric(minFrac, "min_fraction")
	b.ReportMetric(1.0/81, "cor_e3_floor")
}

// BenchmarkProducibility is E11: one Lemma 4.2 check on the counter chain.
func BenchmarkProducibility(b *testing.B) {
	p := producible.CounterChain(4)
	states, counts := producible.DenseConfig([]int{0}, 1, 10000)
	var frac float64
	for i := 0; i < b.N; i++ {
		rep := producible.CheckLemma42(p, states, counts, 1, 4, uint64(i))
		frac += rep.MinFraction
	}
	b.ReportMetric(frac/float64(b.N), "min_density")
}

// BenchmarkTerminationDense is E12: first termination of the uniform dense
// counter terminator at n = 10000 (flat in n — compare
// BenchmarkLeaderTermination).
func BenchmarkTerminationDense(b *testing.B) {
	ct := term.CounterTerminator{Threshold: 40}
	var t float64
	for i := 0; i < b.N; i++ {
		s := pop.New(10000, ct.Initial, ct.Rule, pop.WithSeed(uint64(i)))
		at, _ := term.FirstTermination(s, term.Terminated, 0.5, 1e5)
		t += at
	}
	b.ReportMetric(t/float64(b.N), "first_term_time")
}

// BenchmarkLeaderTermination is E13 at n = 512.
func BenchmarkLeaderTermination(b *testing.B) {
	p := leaderterm.MustNew(core.FastConfig(), 0)
	const n = 512
	var t float64
	early := 0
	for i := 0; i < b.N; i++ {
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(uint64(i)))
		at, _ := term.FirstTermination(s, leaderterm.Terminated, 2, 100*p.Main().DefaultMaxTime(n))
		if !p.MainConverged(s) {
			early++
		}
		t += at
	}
	b.ReportMetric(t/float64(b.N), "term_time")
	b.ReportMetric(float64(early), "early_terms")
}

// BenchmarkUpperBound is E14 at n = 128.
func BenchmarkUpperBound(b *testing.B) {
	p := upperbound.MustNew(core.FastConfig())
	const n = 128
	below := 0
	for i := 0; i < b.N; i++ {
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(uint64(i)))
		s.RunUntil(upperbound.TournamentDone, 5, float64(500*n))
		s.RunTime(60 * math.Log2(n))
		v, _ := upperbound.Report(s.Agent(0))
		if v < math.Log2(n) {
			below++
		}
	}
	b.ReportMetric(float64(below), "bound_violations")
}

// BenchmarkSyntheticCoin is E15 at n = 512.
func BenchmarkSyntheticCoin(b *testing.B) {
	p := synthcoin.MustNew(synthcoin.FastConfig())
	const n = 512
	logN := math.Log2(n)
	var errSum float64
	for i := 0; i < b.N; i++ {
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(uint64(i)))
		s.RunUntil(p.Converged, logN, 40*32*logN*logN)
		for _, a := range s.Agents() {
			if est, ok := a.Estimate(); ok {
				errSum += math.Abs(est - logN)
				break
			}
		}
	}
	b.ReportMetric(errSum/float64(b.N), "abs_err")
}

// BenchmarkBaselines is E16: one run of each of the three protocols at
// n = 400, reporting their times side by side.
func BenchmarkBaselines(b *testing.B) {
	const n = 400
	mp := core.MustNew(core.FastConfig())
	ep := exactcount.New(0)
	var tWeak, tMain, tExact float64
	for i := 0; i < b.N; i++ {
		ws := pop.New(n, approxsize.Initial, approxsize.Rule, pop.WithSeed(uint64(i)))
		_, at := ws.RunUntil(approxsize.Converged, 1, 1e4)
		tWeak += at
		r := mp.Run(n, core.RunOptions{Seed: uint64(i)})
		tMain += r.Time
		es := pop.New(n, ep.Initial, ep.Rule, pop.WithSeed(uint64(i)))
		_, at = es.RunUntil(exactcount.Terminated, 5, float64(5000*n))
		tExact += at
	}
	inv := 1 / float64(b.N)
	b.ReportMetric(tWeak*inv, "weak_time")
	b.ReportMetric(tMain*inv, "main_time")
	b.ReportMetric(tExact*inv, "exact_time")
}

// BenchmarkComposition is E17: one uniformized majority run at n = 400
// with a 60/40 split.
func BenchmarkComposition(b *testing.B) {
	const n = 400
	opinions := make([]int8, n)
	for i := range opinions {
		if i < 6*n/10 {
			opinions[i] = 1
		} else {
			opinions[i] = -1
		}
	}
	wrong := 0
	for i := 0; i < b.N; i++ {
		p := compose.MustNew(compose.Config{F: 16}, majority.Downstream(opinions))
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(uint64(i)))
		ok, _ := s.RunUntil(p.Converged, 10, 5e5)
		s.RunTime(20 * math.Log2(n))
		pl, mi, und := majority.Outputs(s)
		if !ok || mi > 0 || und > 0 || pl != n {
			wrong++
		}
	}
	b.ReportMetric(float64(wrong), "wrong_runs")
}

// BenchmarkLeaderElection complements E17 with the second downstream
// protocol at n = 400.
func BenchmarkLeaderElection(b *testing.B) {
	const n = 400
	nonUnique := 0
	for i := 0; i < b.N; i++ {
		p := compose.MustNew(compose.Config{F: 16}, leaderelect.Downstream())
		s := pop.New(n, p.Initial, p.Rule, pop.WithSeed(uint64(i)))
		s.RunUntil(p.Converged, 10, 5e5)
		s.RunUntil(func(s pop.Engine[compose.State[leaderelect.State]]) bool {
			return leaderelect.Candidates(s) == 1
		}, 10, 1e5)
		if leaderelect.Candidates(s) != 1 {
			nonUnique++
		}
	}
	b.ReportMetric(float64(nonUnique), "non_unique")
}

// BenchmarkAblationClockFactor is A1 at n = 1000 with the smallest factor,
// where the error inflation shows.
func BenchmarkAblationClockFactor(b *testing.B) {
	cfg := core.FastConfig()
	cfg.ClockFactor = 4
	p := core.MustNew(cfg)
	var errSum float64
	for i := 0; i < b.N; i++ {
		r := p.Run(1000, core.RunOptions{Seed: uint64(i)})
		errSum += r.MaxErr
	}
	b.ReportMetric(errSum/float64(b.N), "abs_err_cf4")
}

// BenchmarkAblationEpochFactor is A2 at n = 1000 with a single epoch
// multiple (K too small for Corollary D.10).
func BenchmarkAblationEpochFactor(b *testing.B) {
	cfg := core.FastConfig()
	cfg.EpochFactor = 1
	p := core.MustNew(cfg)
	var errSum float64
	for i := 0; i < b.N; i++ {
		r := p.Run(1000, core.RunOptions{Seed: uint64(i)})
		errSum += r.MaxErr
	}
	b.ReportMetric(errSum/float64(b.N), "abs_err_ef1")
}

// BenchmarkAblationNoRestart is A3 at n = 1000.
func BenchmarkAblationNoRestart(b *testing.B) {
	cfg := core.FastConfig()
	cfg.DisableRestart = true
	p := core.MustNew(cfg)
	var errSum float64
	for i := 0; i < b.N; i++ {
		r := p.Run(1000, core.RunOptions{Seed: uint64(i)})
		errSum += r.MaxErr
	}
	b.ReportMetric(errSum/float64(b.N), "abs_err_norestart")
}

// BenchmarkLeaderDrivenClock measures the [9] phase clock's per-phase cost
// at n = 10000 (Θ(log n) per phase).
func BenchmarkLeaderDrivenClock(b *testing.B) {
	var ld clock.LeaderDriven
	const n, phases = 10000, 20
	var t float64
	for i := 0; i < b.N; i++ {
		s := pop.New(n, ld.Initial, ld.Rule, pop.WithSeed(uint64(i)))
		s.RunUntil(func(s pop.Engine[clock.LeaderState]) bool {
			return clock.LeaderPhase(s) >= phases
		}, 1, 1e7)
		t += s.Time() / phases
	}
	b.ReportMetric(t/float64(b.N), "time_per_phase")
}

// BenchmarkArithmetic is E18: the intro's doubling protocol at n = 10000
// (its halving counterpart is Θ(n) and benchmarked implicitly by the ratio
// metric in cmd/experiments).
func BenchmarkArithmetic(b *testing.B) {
	const n = 10000
	var t float64
	for i := 0; i < b.N; i++ {
		s := arith.NewDoubleEngine(n, n/4, pop.WithSeed(uint64(i)), pop.WithBackend(pop.Sequential))
		at, _ := arith.CompletionTime(s, false, 1e6)
		t += at
	}
	b.ReportMetric(t/float64(b.N)/math.Log(n), "time/ln_n")
}

// BenchmarkChurnTracking is E-churn at benchmark scale: the detect-and-
// restart dynamic estimator tracking a population under lockstep
// membership turnover, reporting the settled tracking error.
func BenchmarkChurnTracking(b *testing.B) {
	const n = 400
	cfg := core.Config{ClockFactor: 8, EpochFactor: 1, GeomBonus: 2}
	until := 1.5 * core.MustNew(cfg).DefaultMaxTime(n) / 3
	var errSum float64
	for i := 0; i < b.N; i++ {
		sched := churn.Step(n, 1e-4, math.Log2(n), until)
		res := churn.Track(churn.TrackerConfig{Protocol: cfg}, n, sched, uint64(i)+1, until)
		mean, _, _ := res.ErrStats(until / 2)
		if !math.IsNaN(mean) {
			errSum += mean
		}
	}
	b.ReportMetric(errSum/float64(b.N), "tracking_err")
}
