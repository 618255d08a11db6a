package expt

import (
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
)

// Env is the engine environment a resolved suite binds at construction
// time: the simulation backend its trials build engines on and the
// per-run trajectory instrumentation, if any. It is plain
// data captured by the Def generator closures — there is no process-wide
// engine configuration — so suites bound to different Envs can run
// concurrently in one process without coordinating. Generators that
// inherently need per-agent data (e.g. InteractionConcentration) stay on
// the sequential engine regardless of Env.Backend.
//
// The zero Env (auto backend, no instrumentation) is
// the default the commands start from; EnvFor derives one from a request.
type Env struct {
	Backend pop.Backend
	// Traj is the single-run instrumentation (history stream, snapshot)
	// applied by Env.RunCore; nil or inactive leaves trials uninstrumented.
	Traj *sweep.Trajectory
	// Restore, when non-nil, is Traj's -restore snapshot (parsed eagerly
	// with sweep.ReadRestore); RunCore resumes each trial from it.
	Restore *pop.Snapshot[core.State]
}

// EnvFor resolves the engine environment a sweep request selects. The
// backend string is parsed here once; everything env-bound downstream —
// generator closures and the sweep.Spec Backend stamp — flows from
// the returned value.
func EnvFor(req sweep.SpecRequest) (Env, error) {
	be, err := req.ParseBackend()
	if err != nil {
		return Env{}, err
	}
	return Env{Backend: be}, nil
}

// engineOpt returns the pop option encoding the env's backend.
func (e Env) engineOpt() pop.Option {
	return pop.WithBackend(e.Backend)
}

// runOptions is the core.RunOptions base an env-bound trial starts from.
func (e Env) runOptions(seed uint64) core.RunOptions {
	return core.RunOptions{Seed: seed, Backend: e.Backend}
}

// RunCore runs one trial of p through core.Run with the env's trajectory
// instrumentation applied (sweep.Observe) and its restore snapshot swapped
// in. tag distinguishes concurrent trials' artifact files (empty = none).
// With no instrumentation configured it is exactly p.Run. The returned
// error is always an artifact-file I/O failure; the Result is valid either
// way.
func (e Env) RunCore(p *core.Protocol, n int, tag string, o core.RunOptions) (core.Result, error) {
	obs, finish := sweep.Observe[core.State](e.Traj, tag)
	o.Observe, o.Restore = obs, e.Restore
	r := p.Run(n, o)
	return r, finish()
}
