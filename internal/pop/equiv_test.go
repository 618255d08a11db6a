// Cross-backend statistical equivalence suite: the batched multiset
// engine and the count-vector dense engine must be distributionally
// indistinguishable from the sequential reference engine on the
// repository's protocols. Backends consume randomness differently, so
// trajectories cannot be compared run-by-run; instead each protocol/size
// runs many seeded trials per backend and the suite compares the
// resulting metric distributions with a Welch-style tolerance (5 standard
// errors plus a small absolute slack — loose enough for fixed seeds to
// pass deterministically, tight enough to catch any systematic bias in
// the batching or pair-matrix machinery).
package pop_test

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/popsim/popsize/internal/churn"
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/epidemic"
	"github.com/popsim/popsize/internal/exactcount"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/stats"
)

// equivBackends are the engines under comparison: the sequential engine
// is the reference, every other backend's metric distribution must match
// it. Seed offsets keep the backends' trial streams disjoint.
var equivBackends = []equivBackend{
	{pop.Sequential, 1},
	{pop.Batched, 2},
	{pop.Dense, 3},
}

type equivBackend struct {
	backend pop.Backend
	seedOff uint64
}

// meansAgree applies the shared Welch-tolerance check (stats.WelchAgree,
// 5 standard errors plus the caller's absolute slack) to two samples.
func meansAgree(t *testing.T, what string, ref, got []float64, absSlack float64) {
	t.Helper()
	if err := stats.WelchAgree(ref, got, 5, absSlack); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

// equivConfig is a reduced-constant preset for the equivalence suite: the
// protocol's shape at a fraction of FastConfig's simulation cost.
func equivConfig() core.Config {
	return core.Config{ClockFactor: 8, EpochFactor: 1, GeomBonus: 2}
}

// TestEquivalenceCoreProtocol: the headline Log-Size-Estimation protocol.
// Convergence time and estimate distributions must agree across all three
// backends at every size, and every multiset-backend trial must conserve
// agents and meet the error bound.
func TestEquivalenceCoreProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence suite is not short")
	}
	p := core.MustNew(equivConfig())
	const trials = 12
	for _, n := range []int{300, 1000, 2000} {
		run := func(backend pop.Backend, seedOff uint64) (times, ests []float64) {
			times = make([]float64, trials)
			ests = make([]float64, trials)
			pop.RunTrials(trials, 0, func(tr int) struct{} {
				r := p.Run(n, core.RunOptions{
					Seed:    seedOff + uint64(tr)*7717,
					Backend: backend,
				})
				if !r.Converged {
					t.Errorf("n=%d backend=%v trial %d did not converge", n, backend, tr)
				}
				if r.MaxErr > 8 {
					t.Errorf("n=%d backend=%v trial %d: error %.2f implausibly large", n, backend, tr, r.MaxErr)
				}
				times[tr] = r.Time
				ests[tr] = r.Estimate
				return struct{}{}
			})
			return times, ests
		}
		seqT, seqE := run(equivBackends[0].backend, equivBackends[0].seedOff)
		logN := math.Log2(float64(n))
		for _, eb := range equivBackends[1:] {
			bT, bE := run(eb.backend, eb.seedOff)
			meansAgree(t, "core convergence time vs "+eb.backend.String(),
				seqT, bT, 0.05*stats.Summarize(seqT).Mean)
			meansAgree(t, "core estimate vs "+eb.backend.String(), seqE, bE, 0.5)
			if m := stats.Summarize(bE).Mean; math.Abs(m-logN) > 6 {
				t.Errorf("n=%d %s: mean estimate %.2f far from log2 n = %.2f", n, eb.backend.String(), m, logN)
			}
		}
		if m := stats.Summarize(seqE).Mean; math.Abs(m-logN) > 6 {
			t.Errorf("n=%d seq: mean estimate %.2f far from log2 n = %.2f", n, m, logN)
		}
	}
}

// TestEquivalenceEpidemic: one-way epidemic completion times (the
// max-propagation primitive under every stage of the main protocol).
func TestEquivalenceEpidemic(t *testing.T) {
	const trials = 24
	for _, n := range []int{500, 2000, 8000} {
		run := func(backend pop.Backend, seedOff uint64) []float64 {
			return pop.RunTrials(trials, 0, func(tr int) float64 {
				s := epidemic.NewEngine(n, 1, pop.WithSeed(seedOff+uint64(tr)*271),
					pop.WithBackend(backend))
				at, ok := epidemic.CompletionTime(s, 1e5)
				if !ok {
					t.Errorf("n=%d backend=%v trial %d: epidemic timed out", n, backend, tr)
				}
				return at
			})
		}
		seq := run(equivBackends[0].backend, equivBackends[0].seedOff+10)
		for _, eb := range equivBackends[1:] {
			got := run(eb.backend, eb.seedOff+10)
			meansAgree(t, "epidemic completion time vs "+eb.backend.String(), seq, got, 0.5)
		}
	}
}

// TestEquivalenceExactCount: the leader-driven exact counting baseline —
// a protocol whose leader walks through Θ(n log n) short-lived states,
// exercising interning-table compaction (and, on the dense engine, the
// delegation heuristic). The count must be exact on every backend and
// termination-time distributions must agree.
func TestEquivalenceExactCount(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence suite is not short")
	}
	p := exactcount.New(3)
	const trials = 12
	for _, n := range []int{100, 250, 500} {
		run := func(backend pop.Backend, seedOff uint64) []float64 {
			return pop.RunTrials(trials, 0, func(tr int) float64 {
				s := p.NewEngine(n, pop.WithSeed(seedOff+uint64(tr)*911),
					pop.WithBackend(backend))
				ok, at := s.RunUntil(exactcount.Terminated, 5, float64(5000*n))
				if !ok {
					t.Errorf("n=%d backend=%v trial %d: never terminated", n, backend, tr)
				}
				if got := exactcount.LeaderCount(s); got != n {
					t.Errorf("n=%d backend=%v trial %d: counted %d agents", n, backend, tr, got)
				}
				return at
			})
		}
		seq := run(equivBackends[0].backend, equivBackends[0].seedOff+20)
		for _, eb := range equivBackends[1:] {
			got := run(eb.backend, eb.seedOff+20)
			meansAgree(t, "exact-count termination time vs "+eb.backend.String(),
				seq, got, 0.1*stats.Summarize(seq).Mean)
		}
	}
}

// TestEquivalenceChurnTrajectory extends the suite to dynamic
// populations: all three backends run the identical churn schedule (a
// join wave, a heavy leave, and lockstep turnover) over a one-way
// epidemic, and the end-state infected-count distributions must agree.
// The epidemic is maximally receiver/sender-asymmetric and joiners enter
// uninfected, so a bias in any backend's removal sampling or in the
// churn-segment bookkeeping shifts the infected fraction directly.
func TestEquivalenceChurnTrajectory(t *testing.T) {
	const n0, trials = 1000, 32
	sched := churn.Merge(
		churn.Schedule{{At: 2, Join: 600}, {At: 5, Leave: 900}},
		churn.Step(n0, 2e-2, 1.5, 10),
	)
	wantN := sched.Net(n0)
	oneWay := func(rec, sen epidemic.State, _ *rand.Rand) (epidemic.State, epidemic.State) {
		if sen.Val > rec.Val {
			rec.Val = sen.Val
		}
		return rec, sen
	}
	run := func(backend pop.Backend, seedOff uint64) (infected, times []float64) {
		infected = make([]float64, trials)
		times = make([]float64, trials)
		pop.RunTrials(trials, 0, func(tr int) struct{} {
			e := pop.NewEngineFromCounts(
				[]epidemic.State{{Val: 1, Member: true}, {Val: 0, Member: true}},
				[]int64{40, n0 - 40}, oneWay,
				pop.WithSeed(seedOff+uint64(tr)*613), pop.WithBackend(backend))
			churn.Apply(e, sched, epidemic.State{Member: true}, 10, 0, nil)
			if e.N() != wantN {
				t.Errorf("backend=%v trial %d: final n=%d, want %d", backend, tr, e.N(), wantN)
			}
			infected[tr] = float64(e.Count(func(s epidemic.State) bool { return s.Val == 1 }))
			times[tr] = e.Time()
			return struct{}{}
		})
		return infected, times
	}
	seqI, seqT := run(equivBackends[0].backend, equivBackends[0].seedOff+30)
	for _, eb := range equivBackends[1:] {
		gotI, gotT := run(eb.backend, eb.seedOff+30)
		meansAgree(t, "churned epidemic infected count vs "+eb.backend.String(),
			seqI, gotI, 0.02*float64(wantN))
		// Segmented parallel time is deterministic up to 1/n quanta: every
		// backend must land on the same horizon.
		meansAgree(t, "churned trajectory end time vs "+eb.backend.String(), seqT, gotT, 0.05)
	}
}

// TestEquivalenceChurnCoreProtocol runs the headline protocol through a
// mid-run doubling on all three backends: convergence must still happen
// and the end-state estimate distributions must agree. (The doubling
// lands early — before convergence — so the protocol's own restart
// machinery absorbs it identically on every backend.)
func TestEquivalenceChurnCoreProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence suite is not short")
	}
	p := core.MustNew(equivConfig())
	const n0, trials = 500, 12
	run := func(backend pop.Backend, seedOff uint64) []float64 {
		ests := make([]float64, trials)
		pop.RunTrials(trials, 0, func(tr int) struct{} {
			e := pop.NewEngineFromCounts(
				[]core.State{core.Initial()}, []int64{n0}, p.Rule,
				pop.WithSeed(seedOff+uint64(tr)*409), pop.WithBackend(backend))
			churn.Apply(e, churn.Doubling(n0, 8), core.Initial(), 10, 0, nil)
			ok, _ := e.RunUntil(p.Converged, 4, p.DefaultMaxTime(2*n0))
			if !ok {
				t.Errorf("backend=%v trial %d did not converge after the doubling", backend, tr)
			}
			ests[tr] = core.Estimates(e).Mean
			return struct{}{}
		})
		return ests
	}
	seqE := run(equivBackends[0].backend, equivBackends[0].seedOff+40)
	logN := math.Log2(float64(2 * n0))
	for _, eb := range equivBackends[1:] {
		gotE := run(eb.backend, eb.seedOff+40)
		meansAgree(t, "churned core estimate vs "+eb.backend.String(), seqE, gotE, 0.5)
		if m := stats.Summarize(gotE).Mean; math.Abs(m-logN) > 6 {
			t.Errorf("%s: churned mean estimate %.2f far from log2(2n) = %.2f", eb.backend.String(), m, logN)
		}
	}
}

// TestMultisetConservationThroughCoreRun asserts exact agent-count
// conservation at every checkpoint of a batched and a dense core-protocol
// run (the engines additionally self-check after every batch and panic on
// violation).
func TestMultisetConservationThroughCoreRun(t *testing.T) {
	p := core.MustNew(equivConfig())
	const n = 5000
	for _, backend := range []pop.Backend{pop.Batched, pop.Dense} {
		e := p.NewEngine(n, pop.WithSeed(33), pop.WithBackend(backend))
		for i := 0; i < 20; i++ {
			e.RunTime(5)
			total := 0
			for _, c := range e.Counts() {
				total += c
			}
			if total != n {
				t.Fatalf("%v checkpoint %d: %d agents, want %d", backend, i, total, n)
			}
		}
	}
}

// TestBatchSelfDeterminismCoreProtocol: the batched engine is
// deterministic for a fixed seed on the real protocol, including its
// Result-level outputs.
func TestBatchSelfDeterminismCoreProtocol(t *testing.T) {
	p := core.MustNew(equivConfig())
	r1 := p.Run(1500, core.RunOptions{Seed: 77, Backend: pop.Batched})
	r2 := p.Run(1500, core.RunOptions{Seed: 77, Backend: pop.Batched})
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("batched runs with the same seed differ:\n%+v\n%+v", r1, r2)
	}
}

// TestDenseSelfDeterminismCoreProtocol: likewise for the count-vector
// engine, whose runs at this size cross the delegation threshold and back.
func TestDenseSelfDeterminismCoreProtocol(t *testing.T) {
	p := core.MustNew(equivConfig())
	r1 := p.Run(1500, core.RunOptions{Seed: 77, Backend: pop.Dense})
	r2 := p.Run(1500, core.RunOptions{Seed: 77, Backend: pop.Dense})
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("dense runs with the same seed differ:\n%+v\n%+v", r1, r2)
	}
}
