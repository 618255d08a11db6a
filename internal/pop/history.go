package pop

import (
	"fmt"
	"math"
)

// HistorySample is one point of a sampled trajectory: the full
// configuration (state → count) at a moment of a run, stamped with the
// engine's parallel time, population size and interaction count. Under
// churn the time axis honors the per-segment accounting of Engine.Time
// and N records the population the sample was taken against.
type HistorySample[S comparable] struct {
	Time         float64
	N            int
	Interactions int64
	Counts       map[S]int
}

// History records a run's configuration trajectory at a fixed parallel-
// time cadence: one HistorySample every Δ time units, plus the initial
// configuration and (when the run does not end exactly on the grid) the
// final one. Observing draws no randomness; attaching a History only
// changes how a run is sliced into Run calls (the multiset engines cap
// batches at each call's remaining budget), which is statistically
// irrelevant — the sampled process is the same.
type History[S comparable] struct {
	every   float64
	next    float64
	samples []HistorySample[S]
}

// historyEps absorbs float64 drift when comparing engine time against the
// sampling grid (mirroring the tolerance churn.drive uses for its ticks).
const historyEps = 1e-9

// NewHistory returns a History sampling every Δ=every time units. It
// panics if every is not positive.
func NewHistory[S comparable](every float64) *History[S] {
	if every <= 0 || math.IsNaN(every) {
		panic("pop: History requires a positive sampling interval")
	}
	return &History[S]{every: every}
}

// Every returns the sampling interval Δ.
func (h *History[S]) Every() float64 { return h.every }

// Samples returns the recorded trajectory (not a copy; callers must not
// mutate it while the run continues).
func (h *History[S]) Samples() []HistorySample[S] { return h.samples }

// Observe records the engine's current configuration as a sample and
// advances the sampling grid past the engine's time. The first call
// (typically at time 0) anchors the grid; RunUntil calls it on every grid
// point it reaches. Duplicate observations of the same instant — e.g. a
// final sample landing exactly on a grid point — are coalesced.
func (h *History[S]) Observe(e Engine[S]) {
	t := e.Time()
	if n := len(h.samples); n > 0 && h.samples[n-1].Interactions == e.Interactions() &&
		h.samples[n-1].Time == t {
		return
	}
	h.samples = append(h.samples, HistorySample[S]{
		Time:         t,
		N:            e.N(),
		Interactions: e.Interactions(),
		Counts:       e.Counts(),
	})
	// Advance the grid by repeated addition (not multiplication), so the
	// boundary sequence is independent of when observations happen.
	for h.next <= t+historyEps {
		h.next += h.every
	}
}

// RunUntil runs the engine with RunUntil semantics (see Engine.RunUntil)
// while recording a sample on every Δ grid point: it advances the engine
// to whichever of the next sample boundary or the next checkEvery
// boundary comes first, so pred still fires on exactly the usual check
// grid and the history on exactly the sampling grid. The initial and
// final configurations are always recorded.
func (h *History[S]) RunUntil(e Engine[S], pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64) {
	if checkEvery <= 0 {
		panic("pop: RunUntil requires checkEvery > 0")
	}
	start := e.Time()
	h.Observe(e)
	if pred(e) {
		return true, start
	}
	nextCheck := start + checkEvery
	for e.Time()-start < maxTime {
		t := e.Time()
		target := math.Min(h.next, nextCheck)
		// Advance by whole interactions, rounding up so the engine
		// actually crosses the boundary (RunTime rounds down and would
		// spin on sub-interaction gaps).
		k := int64(math.Ceil((target - t) * float64(e.N())))
		if k < 1 {
			k = 1
		}
		e.Run(k)
		if e.Time() >= h.next-historyEps {
			h.Observe(e)
		}
		if e.Time() >= nextCheck-historyEps {
			for nextCheck <= e.Time()+historyEps {
				nextCheck += checkEvery
			}
			if pred(e) {
				h.Observe(e)
				return true, e.Time()
			}
		}
	}
	h.Observe(e)
	return false, e.Time()
}

// Observers are the instruments RunObserved attaches to a run from the
// outside. The zero value observes nothing.
type Observers[S comparable] struct {
	// History, when non-nil, records the run's trajectory on its Δ grid.
	History *History[S]
	// SnapshotAt is the parallel time Snapshot targets; <= 0 requests an
	// end-of-run snapshot.
	SnapshotAt float64
	// Snapshot, when non-nil, receives one engine snapshot: taken at the
	// first convergence check whose time is at least SnapshotAt, or at the
	// end of the run when SnapshotAt <= 0 or the run ends first. Check
	// boundaries are where the engine's slicing realigns, so a run
	// restored from this snapshot replays the rest byte-identically.
	Snapshot func(*Snapshot[S])
}

// RunObserved runs e with RunUntil semantics under obs: through
// obs.History.RunUntil when a History is attached (which slices the run on
// the sampling grid too), otherwise through e.RunUntil, so an unobserved
// run is sliced exactly as a plain one. The snapshot is taken before pred
// is evaluated at its check. err reports a failed e.Snapshot (the snapshot
// is then not delivered); the run completes either way.
func RunObserved[S comparable](e Engine[S], pred func(Engine[S]) bool, checkEvery, maxTime float64, obs Observers[S]) (ok bool, at float64, err error) {
	taken := false
	take := func(e Engine[S]) {
		taken = true
		snap, serr := e.Snapshot()
		if serr != nil {
			err = fmt.Errorf("snapshotting engine: %w", serr)
			return
		}
		obs.Snapshot(snap)
	}
	if obs.Snapshot != nil && obs.SnapshotAt > 0 {
		inner := pred
		pred = func(e Engine[S]) bool {
			if !taken && e.Time() >= obs.SnapshotAt {
				take(e)
			}
			return inner(e)
		}
	}
	if obs.History != nil {
		ok, at = obs.History.RunUntil(e, pred, checkEvery, maxTime)
	} else {
		ok, at = e.RunUntil(pred, checkEvery, maxTime)
	}
	if obs.Snapshot != nil && !taken {
		take(e)
	}
	return ok, at, err
}
