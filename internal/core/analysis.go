package core

import (
	"fmt"
	"math"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/stats"
)

// Converged reports the paper's Figure-2 convergence criterion plus output
// delivery: every agent has a role, all agents agree on logSize2, every
// agent has completed all K epochs, and every agent holds an output. It is
// expressed over the configuration vector, so it costs O(live states) on
// the batched engine.
func (p *Protocol) Converged(s pop.Engine[State]) bool {
	first := true
	var ls uint8
	return s.All(func(a State) bool {
		if a.Role == RoleX || !a.HasOutput {
			return false
		}
		if first {
			ls, first = a.LogSize2, false
		} else if a.LogSize2 != ls {
			return false
		}
		return uint32(a.Epoch) >= p.cfg.EpochTarget(a.LogSize2)
	})
}

// ConvergedEpoch reports the strict Figure-2 criterion from the paper's
// caption: all agents have reached epoch = EpochFactor·logSize2 (with a
// common logSize2), without requiring output delivery.
func (p *Protocol) ConvergedEpoch(s pop.Engine[State]) bool {
	first := true
	var ls uint8
	return s.All(func(a State) bool {
		if a.Role == RoleX {
			return false
		}
		if first {
			ls, first = a.LogSize2, false
		} else if a.LogSize2 != ls {
			return false
		}
		return uint32(a.Epoch) >= p.cfg.EpochTarget(a.LogSize2)
	})
}

// EstimateStats summarizes the outputs across a population.
type EstimateStats struct {
	// HaveOutput is the number of agents holding an output.
	HaveOutput int
	// Min and Max are the extreme per-agent estimates.
	Min, Max float64
	// Mean is the average per-agent estimate.
	Mean float64
	// MaxErr is the largest |estimate − log2 n| over agents with output.
	MaxErr float64
}

// Estimates returns output statistics for the current configuration of s.
func Estimates(s pop.Engine[State]) EstimateStats {
	logN := math.Log2(float64(s.N()))
	st := EstimateStats{Min: math.Inf(1), Max: math.Inf(-1)}
	var ests []stats.Weighted
	for a, cnt := range s.Counts() {
		est, ok := a.Estimate()
		if !ok {
			continue
		}
		ests = append(ests, stats.Weighted{V: est, W: cnt})
		st.HaveOutput += cnt
		st.Min = math.Min(st.Min, est)
		st.Max = math.Max(st.Max, est)
		st.MaxErr = math.Max(st.MaxErr, math.Abs(est-logN))
	}
	st.Mean = stats.WeightedMean(ests)
	if st.HaveOutput == 0 {
		st.Min, st.Max = 0, 0
	}
	return st
}

// FieldMaxima records the largest value taken by each Protocol-1 field over
// a configuration; the Lemma 3.9 state bound is the product of the live
// field ranges.
type FieldMaxima struct {
	LogSize2 uint8
	GR       uint8
	Time     uint16
	Epoch    uint16
	Sum      uint32
}

// Maxima scans the configuration and returns per-field maxima.
func Maxima(s pop.Engine[State]) FieldMaxima {
	var m FieldMaxima
	for a := range s.Counts() {
		m.LogSize2 = max(m.LogSize2, a.LogSize2)
		m.GR = max(m.GR, a.GR)
		m.Time = max(m.Time, a.Time)
		m.Epoch = max(m.Epoch, a.Epoch)
		m.Sum = max(m.Sum, a.Sum)
	}
	return m
}

// Result is the outcome of a single complete run of the protocol.
type Result struct {
	// N is the population size.
	N int
	// Converged reports whether the Converged predicate held before the
	// time limit.
	Converged bool
	// Time is the parallel time at which convergence was detected (or the
	// time limit).
	Time float64
	// Estimate is the mean per-agent estimate at the end of the run.
	Estimate float64
	// MaxErr is the largest |estimate − log2 n| over all agents.
	MaxErr float64
	// DistinctStates is the number of distinct states observed (0 on the
	// sequential backend unless state tracking was requested).
	DistinctStates int
	// CountA is the number of A-role agents at the end of the run.
	CountA int
	// LogSize2 is the common raw logSize2 value at the end of the run
	// (the maximum across agents if the run has not converged).
	LogSize2 int
}

// RunOptions configures Run.
type RunOptions struct {
	// Seed seeds the simulation (default 0, still deterministic).
	Seed uint64
	// Backend selects the simulation engine (default pop.Auto: batched
	// for large populations, sequential otherwise).
	Backend pop.Backend
	// MaxTime bounds the run in parallel time; 0 selects a generous
	// default that scales as log² n.
	MaxTime float64
	// CheckEvery is the convergence-check interval in parallel time
	// (default: max(1, log n)).
	CheckEvery float64
	// TrackStates enables distinct-state counting.
	TrackStates bool

	// Observe attaches trajectory instruments to the run (pop.RunObserved):
	// a sampled-configuration History and/or a snapshot sink. The zero
	// value observes nothing.
	Observe pop.Observers[State]
	// Restore, when non-nil, resumes the run from this snapshot instead
	// of constructing a fresh engine; Seed and Backend are ignored (they
	// are part of the snapshot). The restored run gets a
	// fresh MaxTime budget measured from the snapshot's time.
	Restore *pop.Snapshot[State]
}

// DefaultMaxTime returns a convergence-time budget that the protocol meets
// with ample slack: c·(ClockFactor·EpochFactor)·(2·log n + bonus + 3)².
func (p *Protocol) DefaultMaxTime(n int) float64 {
	l := 2*math.Log2(float64(n)) + float64(p.cfg.GeomBonus) + 3
	return 3 * float64(p.cfg.ClockFactor*p.cfg.EpochFactor) * l * l
}

// Run executes one complete trial on n agents and returns its Result.
// With o.Restore set the trial resumes from the snapshot instead (n is
// ignored; the snapshot carries the population). A malformed snapshot or a
// snapshot that cannot be serialized panics — command-line front ends
// validate snapshot files before reaching Run, so either is a programming
// error here, not an input error.
func (p *Protocol) Run(n int, o RunOptions) Result {
	var s pop.Engine[State]
	if o.Restore != nil {
		var err error
		s, err = pop.Restore(o.Restore, p.Rule)
		if err != nil {
			panic(fmt.Sprintf("core: restoring snapshot: %v", err))
		}
		n = s.N()
	} else {
		opts := []pop.Option{pop.WithSeed(o.Seed), pop.WithBackend(o.Backend)}
		if o.TrackStates {
			opts = append(opts, pop.WithStateTracking())
		}
		s = p.NewEngine(n, opts...)
	}
	maxTime := o.MaxTime
	if maxTime <= 0 {
		maxTime = p.DefaultMaxTime(n)
	}
	check := o.CheckEvery
	if check <= 0 {
		check = math.Max(1, math.Log2(float64(n)))
	}
	ok, at, err := pop.RunObserved(s, p.Converged, check, maxTime, o.Observe)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	est := Estimates(s)
	return Result{
		N:              n,
		Converged:      ok,
		Time:           at,
		Estimate:       est.Mean,
		MaxErr:         est.MaxErr,
		DistinctStates: s.DistinctStates(),
		CountA:         s.Count(func(a State) bool { return a.Role == RoleA }),
		LogSize2:       int(Maxima(s).LogSize2),
	}
}

// NewEngine constructs a simulation engine for the protocol; the backend
// is chosen with pop.WithBackend (default pop.Auto).
func (p *Protocol) NewEngine(n int, opts ...pop.Option) pop.Engine[State] {
	return pop.NewEngine(n, p.Initial, p.Rule, opts...)
}
