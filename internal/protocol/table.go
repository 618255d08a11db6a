package protocol

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
)

// initSeedMix derives the initial-configuration rng stream from a trial
// seed. It differs from the engines' own stream constant
// (seed^0x9e3779b97f4a7c15, see pop's constructors), so a protocol that
// randomizes its initial configuration never replays the scheduler's
// draws.
const initSeedMix = 0xd1342543de82ef95

// initRand returns the rng a table protocol's Init draws from for one
// trial.
func initRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^initSeedMix))
}

// TableSpec declares one table-compiled protocol for the registry: the
// compiled transition table (possibly population-size-dependent), the
// initial configuration, the convergence predicate, and the metric
// extraction. RegisterTable wraps it in the generic harness, which
// uniformly provides engine construction honoring the backend selection,
// the declared-table bypass (pop.WithTable), history streams,
// snapshot/restore instrumentation and -stats counters.
type TableSpec[S comparable] struct {
	Name string
	Desc string
	// Compile returns the compiled table for population size n. Protocols
	// whose state space is size-independent return a shared Compiled.
	Compile func(n int) (*pop.Compiled[S], error)
	// Init builds the initial configuration as a state-count multiset; r
	// is a per-trial stream disjoint from the engine's (protocols with
	// deterministic initial configurations ignore it).
	Init func(n int, r *rand.Rand) (states []S, counts []int64)
	// Converged stops the run; CheckEvery (default 1) is the predicate's
	// evaluation interval in parallel time and MaxTime(n) bounds the run.
	Converged  func(e pop.Engine[S]) bool
	CheckEvery float64
	MaxTime    func(n int) float64
	// Values extracts the recorded per-trial metrics; Format renders them
	// as the per-trial output line.
	Values func(e pop.Engine[S], converged bool, at float64) sweep.Values
	Format func(n int, v sweep.Values) string
}

// RegisterTable registers a table-compiled protocol. Every such protocol
// supports trajectory instrumentation.
func RegisterTable[S comparable](sp TableSpec[S]) {
	Register(Info{
		Name:       sp.Name,
		Desc:       sp.Desc,
		Trajectory: true,
		New:        func(cfg Config) (*Runner, error) { return newTableRunner(sp, cfg) },
	})
}

func newTableRunner[S comparable](sp TableSpec[S], cfg Config) (*Runner, error) {
	restore, n, note, err := Restored[S](cfg)
	if err != nil {
		return nil, err
	}
	c, err := sp.Compile(n)
	if err != nil {
		return nil, fmt.Errorf("compiling %s table: %w", sp.Name, err)
	}
	rule := c.Rule()
	checkEvery := sp.CheckEvery
	if checkEvery <= 0 {
		checkEvery = 1
	}

	var statsMu sync.Mutex
	statsLines := make(map[int]string, cfg.Trials)

	run := func(tr int, seed uint64) sweep.Values {
		tag := ""
		if cfg.Trials > 1 {
			tag = fmt.Sprintf("t%d", tr)
		}
		var e pop.Engine[S]
		if restore != nil {
			var err error
			e, err = pop.Restore(restore, rule, c.Option())
			if err != nil {
				cfg.Fail(fmt.Errorf("trial %d: restoring %s: %w", tr, cfg.Traj.Restore, err))
				return sweep.Values{}
			}
		} else {
			states, counts := sp.Init(n, initRand(seed))
			e = pop.NewEngineFromCounts(states, counts, rule,
				append(cfg.engineOpts(seed), c.Option())...)
		}

		obs, finish := sweep.Observe[S](cfg.Traj, tag)
		ok, at, err := pop.RunObserved(e, sp.Converged, checkEvery, sp.MaxTime(n), obs)
		if ferr := finish(); err == nil {
			err = ferr
		}
		if err != nil {
			cfg.Fail(fmt.Errorf("trial %d: %w", tr, err))
		}
		if cfg.CollectStats {
			st := e.Stats()
			line := fmt.Sprintf("table=%d cache=%d rule=%d seq=%d", st.TableHits, st.CacheHits, st.RuleCalls, st.SeqInteractions)
			statsMu.Lock()
			statsLines[tr] = line
			statsMu.Unlock()
		}
		return sp.Values(e, ok, at)
	}

	return &Runner{
		N:    n,
		Note: note,
		Run:  run,
		Format: func(v sweep.Values) string {
			return sp.Format(n, v)
		},
		StatsLines: func() []string {
			statsMu.Lock()
			defer statsMu.Unlock()
			lines := make([]string, 0, len(statsLines))
			for tr := 0; tr < cfg.Trials; tr++ {
				if line, have := statsLines[tr]; have {
					lines = append(lines, fmt.Sprintf("trial %d: %s", tr, line))
				}
			}
			return lines
		},
	}, nil
}
