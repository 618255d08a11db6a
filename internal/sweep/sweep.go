// Package sweep is the experiment-orchestration subsystem: it turns a
// declarative sweep spec — grid points over experiment × n × trials — into
// a single global work queue executed by a bounded worker pool, streaming
// one JSONL record per completed trial to an output file that doubles as a
// checkpoint.
//
// Trials from different points interleave in the queue, so the pool stays
// saturated even when one point dominates the total cost (the paper's
// n·log²n-interaction trials at the largest n). Each trial's engine seed is
// derived centrally via pop.TrialSeed from the base seed, the point's
// experiment label and n, and the trial index — no two units of a sweep
// share a random stream, and the whole sweep is reproducible from the base
// seed alone.
//
// Restarting an interrupted sweep with the same spec and base seed skips
// every (experiment, n, trial) key already present in the output file and
// appends only the missing records; the merged file is equivalent to an
// uninterrupted run's (byte-identical after canonicalization — see
// CanonicalJSONL).
package sweep

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/popsim/popsize/internal/pop"
)

// Bool encodes a per-trial boolean outcome as a Values field (1 = true),
// the convention every renderer and aggregator assumes.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TrialFunc runs one trial and returns its named result fields. It is
// called from worker goroutines, so it must not share mutable state with
// other trials, and it must be deterministic given (trial, seed) — the
// resume guarantee depends on a rerun producing the identical Values.
type TrialFunc func(trial int, seed uint64) Values

// Point is one cell of the sweep grid: an experiment label, a population
// size, and a number of independent trials of Run.
type Point struct {
	// Experiment identifies the experiment (and any sub-configuration,
	// e.g. "E17/majority/m=0.2"); it is the first component of the
	// record key and of the seed derivation.
	Experiment string
	// N is the population size, recorded per trial and mixed into the
	// seed derivation so equal trial indices at different sizes still
	// draw distinct streams.
	N int
	// Trials is the number of independent trials at this point.
	Trials int
	// Run executes one trial.
	Run TrialFunc
}

// Spec is a declarative sweep: the full grid plus the knobs shared by every
// unit of work.
type Spec struct {
	Points   []Point
	BaseSeed uint64
	// Backend is recorded in every emitted record (the engines themselves
	// are configured by the trial functions).
	Backend pop.Backend
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
}

// Unit is one schedulable trial: a key plus its derived seed.
type Unit struct {
	Key
	Seed uint64
	run  TrialFunc
}

// runSafe runs the unit's trial, turning a panic into an error.
func (u Unit) runSafe() (vals Values, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sweep: %s n=%d trial %d panicked: %v", u.Experiment, u.N, u.Trial, p)
		}
	}()
	return u.run(u.Trial, u.Seed), nil
}

// seedLabel is the experiment string handed to pop.TrialSeed: it folds the
// population size into the label so that (experiment, n, trial) — the full
// record key — determines the seed.
func seedLabel(p Point) string { return fmt.Sprintf("%s#n=%d", p.Experiment, p.N) }

// Units expands the spec into its work queue, round-robin across points
// (trial 0 of every point, then trial 1, ...): long points do not form a
// convoy at the tail, and early records cover the whole grid.
func (s Spec) Units() []Unit {
	var units []Unit
	for tr := 0; ; tr++ {
		added := false
		for _, p := range s.Points {
			if tr >= p.Trials {
				continue
			}
			added = true
			units = append(units, Unit{
				Key:  Key{Experiment: p.Experiment, N: p.N, Trial: tr},
				Seed: pop.TrialSeed(s.BaseSeed, seedLabel(p), tr),
				run:  p.Run,
			})
		}
		if !added {
			return units
		}
	}
}

// Options configures one Run invocation (as opposed to the Spec, which
// describes the sweep itself).
type Options struct {
	// Out receives one JSONL record line per newly completed trial, in
	// completion order; nil discards the stream. Writes are serialized.
	Out io.Writer
	// Done is the resume checkpoint (from LoadCheckpoint): units whose key
	// is present are not rerun, and their records are folded into the
	// results without being rewritten to Out.
	Done map[Key]Record
	// OnRecord, if set, observes every record — reused and new — as it
	// enters the results (serialized; keep it cheap).
	OnRecord func(Record)
	// Limit stops the sweep after that many newly executed units when
	// > 0, leaving the remainder un-run (a deterministic stand-in for a
	// mid-run kill; used by the resume tests).
	Limit int
	// Acquire, when non-nil, gates every unit execution: a worker calls it
	// before running a unit and invokes the returned release afterwards.
	// It blocks until a slot is available or ctx is canceled (returning
	// ctx's error). Multi-job schedulers (the popsimd daemon) use it to
	// share one bounded slot pool fairly across concurrent RunContext
	// calls; nil means units run as soon as a worker goroutine is free.
	Acquire func(ctx context.Context) (release func(), err error)
}

// Results indexes a sweep's records by key.
type Results struct {
	byKey map[Key]Record
}

// NewResults returns an empty result set; Add folds records in.
func NewResults() *Results { return &Results{byKey: map[Key]Record{}} }

// Add inserts or replaces a record.
func (r *Results) Add(rec Record) { r.byKey[rec.Key] = rec }

// Len returns the number of records held.
func (r *Results) Len() int { return len(r.byKey) }

// Get returns the record for one trial.
func (r *Results) Get(experiment string, n, trial int) (Record, bool) {
	rec, ok := r.byKey[Key{Experiment: experiment, N: n, Trial: trial}]
	return rec, ok
}

// Sorted returns all records in canonical key order.
func (r *Results) Sorted() []Record {
	recs := make([]Record, 0, len(r.byKey))
	for _, rec := range r.byKey {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key.Less(recs[j].Key) })
	return recs
}

// Values returns field across the trials recorded for (experiment, n), in
// trial order — the shape every table renderer consumes. Trials whose
// record lacks the field contribute NaN (renderers already treat NaN as
// "did not converge").
func (r *Results) Values(experiment string, n int, field string) []float64 {
	type tv struct {
		trial int
		v     float64
	}
	var tvs []tv
	for k, rec := range r.byKey {
		if k.Experiment != experiment || k.N != n {
			continue
		}
		v, ok := rec.Values[field]
		if !ok {
			v = math.NaN()
		}
		tvs = append(tvs, tv{k.Trial, v})
	}
	sort.Slice(tvs, func(i, j int) bool { return tvs[i].trial < tvs[j].trial })
	out := make([]float64, len(tvs))
	for i, t := range tvs {
		out[i] = t.v
	}
	return out
}

// Run executes the spec with no external cancellation; it is
// RunContext(context.Background(), spec, opt).
func Run(spec Spec, opt Options) (*Results, error) {
	return RunContext(context.Background(), spec, opt)
}

// RunContext executes the spec's work queue on a bounded worker pool,
// streaming each newly completed record to opt.Out, and returns the full
// result set (checkpointed records included). A unit present in opt.Done
// is reused only if its recorded seed and backend match the spec's; a
// mismatch means the checkpoint was produced under a different base seed,
// grid, or simulation backend and is reported as an error rather than
// silently mixing streams.
//
// Cancellation is observed between units: canceling ctx stops new units
// from starting, waits for the in-flight ones to finish (each is recorded
// and checkpointed as usual), and returns the partial results together
// with ctx's error — the output file stays a loadable checkpoint, so the
// same spec can be resumed later via Options.Done. A failed opt.Out write
// cancels the remaining queue the same way: no compute is burned on
// trials whose records can no longer be persisted. A unit whose trial
// panics stops the sweep the same way, with the panic as the returned
// error, so one poisoned unit fails its sweep instead of the process.
func RunContext(ctx context.Context, spec Spec, opt Options) (*Results, error) {
	units := spec.Units()
	res := NewResults()
	var todo []Unit
	for _, u := range units {
		if rec, ok := opt.Done[u.Key]; ok {
			if rec.Seed != u.Seed {
				return nil, fmt.Errorf(
					"sweep: checkpoint record %+v has seed %#x but the spec derives %#x (different base seed or spec?)",
					u.Key, rec.Seed, u.Seed)
			}
			if rec.Backend != spec.Backend.String() {
				return nil, fmt.Errorf(
					"sweep: checkpoint record %+v was produced on backend %q but the sweep runs %q — resume with the matching -backend or start fresh",
					u.Key, rec.Backend, spec.Backend)
			}
			res.Add(rec)
			if opt.OnRecord != nil {
				opt.OnRecord(rec)
			}
			continue
		}
		todo = append(todo, u)
	}
	if opt.Limit > 0 && len(todo) > opt.Limit {
		todo = todo[:opt.Limit]
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	// run covers every cancellation source with one signal: the caller's
	// ctx and an internal abort on checkpoint-write failure or a panicking
	// unit.
	run, abort := context.WithCancel(ctx)
	defer abort()
	var (
		mu       sync.Mutex // guards res, opt.Out, writeErr, unitErr
		writeErr error
		unitErr  error
		queue    = make(chan Unit)
		wg       sync.WaitGroup
	)
	backend := spec.Backend.String()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range queue {
				// The queue is unbuffered, but a unit handed over in the
				// same instant the run was canceled must not start.
				if run.Err() != nil {
					return
				}
				release := func() {}
				if opt.Acquire != nil {
					rel, err := opt.Acquire(run)
					if err != nil {
						return
					}
					release = rel
				}
				start := time.Now()
				vals, err := u.runSafe()
				if err != nil {
					mu.Lock()
					if unitErr == nil {
						unitErr = err
					}
					mu.Unlock()
					abort()
					release()
					return
				}
				rec := Record{
					Key:     u.Key,
					Seed:    u.Seed,
					Backend: backend,
					Values:  vals,
					WallMS:  float64(time.Since(start).Microseconds()) / 1000,
				}
				mu.Lock()
				res.Add(rec)
				if opt.Out != nil && writeErr == nil {
					line, err := rec.appendLine(nil)
					if err == nil {
						_, err = opt.Out.Write(line)
					}
					if err != nil {
						// A failed checkpoint write would silently lose
						// every further record; cancel the remaining queue
						// instead of burning the rest of the sweep's
						// compute on trials that cannot be persisted.
						writeErr = err
						abort()
					}
				}
				if opt.OnRecord != nil {
					opt.OnRecord(rec)
				}
				mu.Unlock()
				release()
			}
		}()
	}
feed:
	for _, u := range todo {
		select {
		case queue <- u:
		case <-run.Done():
			break feed
		}
	}
	close(queue)
	wg.Wait()
	if writeErr != nil {
		return res, writeErr
	}
	if unitErr != nil {
		return res, unitErr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}
