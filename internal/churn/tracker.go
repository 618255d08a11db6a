package churn

import (
	"context"
	"fmt"
	"math"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// DefaultXFrac is the default undecided-fraction detection threshold: a
// tick observing more than this fraction of agents still in the initial
// undecided role signals a join wave. Freshly joined agents are absorbed
// by the partition subprotocol within O(log n) time, so the signal is
// transient — which is why the tracker's poll cadence defaults to 1 time
// unit (see TrackerConfig.TickEvery).
const DefaultXFrac = 0.05

// warmupFactor·log2(n) is how long after a restart the undecided-fraction
// detector stays quiet: a restart re-initializes every agent to the
// undecided role, and the partition needs O(log n) time to absorb them.
const warmupFactor = 4

// TrackerConfig configures the detect-and-restart tracker.
type TrackerConfig struct {
	// Protocol holds the Log-Size-Estimation constants (zero value:
	// core.FastConfig()).
	Protocol core.Config
	// Backend selects the simulation engine (default pop.Auto).
	Backend pop.Backend
	// TickEvery is the poll cadence in parallel time: detection checks
	// and samples happen at every tick. It must stay below the O(log n)
	// partition timescale or join waves are absorbed unseen; the default
	// of 1 does.
	TickEvery float64
	// XFrac is the undecided-fraction restart threshold (default
	// DefaultXFrac; negative disables join detection).
	XFrac float64
	// RefreshEvery forces a restart whenever the current protocol run is
	// older than this many units of parallel time. It is the shrink
	// fallback: leaves produce no undecided agents, so without protocol-
	// level size-change detection (arXiv:2405.05137's counting machinery,
	// not reproduced here) a stale over-estimate is only corrected by
	// re-running. 0 disables refreshes.
	RefreshEvery float64
	// CheckpointSink, when non-nil, receives one TrackCheckpoint captured
	// at the end of the first tick at or after global time CheckpointAt —
	// the tracker's own state plus a versioned snapshot of the current
	// engine. ResumeTrack continues a tracked run from it such that the
	// resumed samples match the uninterrupted run's post-checkpoint
	// samples exactly.
	CheckpointSink func(*TrackCheckpoint)
	CheckpointAt   float64
}

// Sample is one tick's observation of the tracked population.
type Sample struct {
	// At is the global parallel time of the observation (continuous
	// across restarts).
	At float64
	// N is the population size at the observation.
	N int
	// Estimate is the tracker's held output: the mean per-agent estimate
	// of log2 n from the most recent run whose output reached every
	// agent. NaN before the first full convergence.
	Estimate float64
	// Err is |Estimate − log2 N| against the population size at the
	// observation; NaN while Estimate is.
	Err float64
	// AdoptedAt is the global time at which the held estimate was last
	// adopted (NaN before the first adoption) — what distinguishes a
	// fresh post-restart estimate from a stale held one.
	AdoptedAt float64
	// Restarts counts tracker restarts up to and including this tick.
	Restarts int
}

// Result summarizes a tracked run.
type Result struct {
	Samples  []Sample
	Restarts int
	FinalN   int
	// MeanAbsErr and MaxAbsErr aggregate Err over the samples holding an
	// estimate; NaN if no sample ever did.
	MeanAbsErr, MaxAbsErr float64
}

// ErrStats aggregates |err| over the samples at or after fromTime that
// hold an estimate, returning their mean, max and count (NaN, NaN, 0 when
// none do).
func (r Result) ErrStats(fromTime float64) (mean, maxv float64, n int) {
	sum := 0.0
	maxv = math.NaN()
	for _, s := range r.Samples {
		if s.At < fromTime-timeEps || math.IsNaN(s.Err) {
			continue
		}
		sum += s.Err
		if n == 0 || s.Err > maxv {
			maxv = s.Err
		}
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN(), 0
	}
	return sum / float64(n), maxv, n
}

// DetectionLatency scans a tracked run for the response to a churn event
// at global time eventAt: detect is the delay until the first restart at
// or after the event, and settle the delay until the tracker holds an
// estimate *adopted after that restart* whose error is within errTol —
// i.e. until the re-count has actually re-converged, not merely until the
// stale held estimate happens to sit inside the tolerance (a doubling
// moves log2 n by only 1, so any sensible tolerance contains the stale
// value). Either is NaN if it never happened.
func (r Result) DetectionLatency(eventAt, errTol float64) (detect, settle float64) {
	detect, settle = math.NaN(), math.NaN()
	base := 0
	detectAt := math.NaN()
	for _, s := range r.Samples {
		if s.At < eventAt-timeEps {
			base = s.Restarts
			continue
		}
		if math.IsNaN(detect) {
			if s.Restarts > base {
				detect = s.At - eventAt
				detectAt = s.At
			}
			continue
		}
		if s.AdoptedAt > detectAt+timeEps && s.Err <= errTol { // false while NaN
			settle = s.At - eventAt
			return detect, settle
		}
	}
	return detect, settle
}

// Track runs the Log-Size-Estimation protocol on a population that starts
// at n0 agents and churns per sched (marks relative to the start),
// restarting the protocol on detection, until `until` units of global
// parallel time have passed. Everything — engine seeds per restart and
// the tick/detection cadence — derives deterministically from seed, so a
// Track call is a valid sweep trial.
//
// A restart rebuilds the engine from an all-initial configuration of the
// current population size (agents are anonymous, so this is exactly a
// protocol-level global restart) with a fresh seed derived from the
// restart ordinal; global time continues across the rebuild.
func Track(cfg TrackerConfig, n0 int, sched Schedule, seed uint64, until float64) Result {
	return TrackContext(context.Background(), cfg, n0, sched, seed, until)
}

// TrackContext is Track under external cancellation: canceling ctx stops
// the driver loop at the next advance boundary, and the Result covers the
// samples taken so far. A canceled tracked run is still deterministic up
// to its stopping point — the engine trajectory depends only on the seed,
// so the samples it did take match an uninterrupted run's prefix.
func TrackContext(ctx context.Context, cfg TrackerConfig, n0 int, sched Schedule, seed uint64, until float64) Result {
	tr := newTracker(cfg, seed)
	tr.spawn(n0)
	drive(ctx, sched, until, tr.tickEvery, tr.now, tr.run, tr.step, tr.event, tr.tick)
	return tr.finish()
}

// ResumeTrack continues a tracked run from a checkpoint captured by a
// CheckpointSink: the caller supplies the same TrackerConfig, schedule,
// seed (carried in the checkpoint) and horizon as the original Track call,
// and receives a Result whose samples are exactly the uninterrupted run's
// samples after the checkpoint time. Aggregates (MeanAbsErr, MaxAbsErr)
// likewise cover only the resumed window.
func ResumeTrack(cfg TrackerConfig, ck *TrackCheckpoint, sched Schedule, until float64) (Result, error) {
	if ck.Version != TrackCheckpointVersion {
		return Result{}, fmt.Errorf("churn: checkpoint version %d (this build reads %d)",
			ck.Version, TrackCheckpointVersion)
	}
	if ck.Engine == nil {
		return Result{}, fmt.Errorf("churn: checkpoint has no engine snapshot")
	}
	tr := newTracker(cfg, ck.Seed)
	e, err := pop.Restore(ck.Engine, tr.p.Rule)
	if err != nil {
		return Result{}, fmt.Errorf("churn: restoring checkpointed engine: %w", err)
	}
	tr.e = e
	tr.offset = ck.Offset
	tr.lastRestart = ck.LastRestart
	tr.restarts = ck.Restarts
	tr.held = float64(ck.Held)
	tr.adoptedAt = float64(ck.AdoptedAt)
	tr.ckDone = true // never re-checkpoint a resumed run
	driveFrom(context.Background(), sched, ck.At, until, tr.tickEvery, tr.now, tr.run, tr.step, tr.event, tr.tick)
	return tr.finish(), nil
}

// tracker is the mutable state behind Track/ResumeTrack: the engine plus
// everything the detect-and-restart loop carries across ticks — exactly
// the fields a TrackCheckpoint serializes.
type tracker struct {
	cfg              TrackerConfig
	p                *core.Protocol
	tickEvery, xfrac float64
	seed             uint64

	e           pop.Engine[core.State]
	offset      float64 // global time already elapsed on previous engines
	lastRestart float64
	restarts    int
	held        float64
	adoptedAt   float64

	res    Result
	errSum float64
	errN   int
	ckDone bool
}

func newTracker(cfg TrackerConfig, seed uint64) *tracker {
	pcfg := cfg.Protocol
	if pcfg == (core.Config{}) {
		pcfg = core.FastConfig()
	}
	tickEvery := cfg.TickEvery
	if tickEvery <= 0 {
		tickEvery = 1
	}
	xfrac := cfg.XFrac
	if xfrac == 0 {
		xfrac = DefaultXFrac
	}
	return &tracker{
		cfg: cfg, p: core.MustNew(pcfg), tickEvery: tickEvery, xfrac: xfrac,
		seed: seed, held: math.NaN(), adoptedAt: math.NaN(),
		res:    Result{MeanAbsErr: math.NaN(), MaxAbsErr: math.NaN()},
		ckDone: cfg.CheckpointSink == nil,
	}
}

func (tr *tracker) spawn(size int) {
	tr.e = pop.NewEngineFromCounts(
		[]core.State{core.Initial()}, []int64{int64(size)}, tr.p.Rule,
		pop.WithSeed(pop.TrialSeed(tr.seed, "churn/restart", tr.restarts)),
		pop.WithBackend(tr.cfg.Backend))
}

// doRestart replaces the engine with a fresh all-initial one of the
// current size, keeping the global clock continuous.
func (tr *tracker) doRestart(at float64) {
	size := tr.e.N()
	tr.offset = at
	tr.restarts++
	tr.lastRestart = at
	tr.spawn(size)
}

func (tr *tracker) now() float64   { return tr.offset + tr.e.Time() }
func (tr *tracker) run(dt float64) { tr.e.RunTime(dt) }
func (tr *tracker) step()          { tr.e.Step() }
func (tr *tracker) event(ev Event) {
	if ev.Join > 0 {
		tr.e.AddAgents(core.Initial(), ev.Join)
	}
	if ev.Leave > 0 {
		tr.e.RemoveAgents(ev.Leave)
	}
}

func (tr *tracker) tick(t float64) {
	n := tr.e.N()
	// Observe: adopt a new estimate only when the latest run's output has
	// reached every agent, else keep holding.
	st := core.Estimates(tr.e)
	if st.HaveOutput == n {
		tr.held = st.Mean
		tr.adoptedAt = t
	}
	errv := math.NaN()
	if !math.IsNaN(tr.held) {
		errv = math.Abs(tr.held - math.Log2(float64(n)))
		tr.errSum += errv
		tr.errN++
		if math.IsNaN(tr.res.MaxAbsErr) || errv > tr.res.MaxAbsErr {
			tr.res.MaxAbsErr = errv
		}
	}
	// Detect. The undecided-fraction signal is suppressed during the
	// post-restart warmup, while the restart's own undecided agents are
	// still being partitioned.
	switch {
	case tr.xfrac >= 0 && t-tr.lastRestart > warmupFactor*math.Log2(float64(n)) &&
		float64(tr.e.Count(undecided)) > tr.xfrac*float64(n):
		tr.doRestart(t)
	case tr.cfg.RefreshEvery > 0 && t-tr.lastRestart >= tr.cfg.RefreshEvery-timeEps:
		tr.doRestart(t)
	}
	tr.res.Samples = append(tr.res.Samples, Sample{
		At: t, N: n, Estimate: tr.held, Err: errv,
		AdoptedAt: tr.adoptedAt, Restarts: tr.restarts})
	// Checkpoint last, after any restart this tick performed, so the
	// captured engine is the one the next tick will actually drive.
	if !tr.ckDone && t >= tr.cfg.CheckpointAt-timeEps {
		tr.ckDone = true
		tr.cfg.CheckpointSink(tr.checkpoint(t))
	}
}

func (tr *tracker) finish() Result {
	tr.res.Restarts = tr.restarts
	tr.res.FinalN = tr.e.N()
	if tr.errN > 0 {
		tr.res.MeanAbsErr = tr.errSum / float64(tr.errN)
	}
	return tr.res
}

// undecided reports the initial pre-partition role — the tracker's join
// signal.
func undecided(a core.State) bool { return a.Role == core.RoleX }
