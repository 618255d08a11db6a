package expt

import (
	"fmt"
	"strings"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/sweep"
	"github.com/popsim/popsize/internal/synthcoin"
)

// Suite is a resolved sweep request: the selected experiment defs in index
// order, their combined points (the work queue a command or the daemon
// submits), the engine environment every def's trial closures were bound
// to, and the sizing parameters the defs were built with (renderers like
// Fig2Points need them back).
type Suite struct {
	Defs   []Def
	Points []sweep.Point
	Env    Env
	Params Params
}

// Resolve turns a serializable sweep request into the sized experiment
// suite it selects: the sizing preset comes from req.Quick, req.Ns
// overrides the primary population-size grid (Params.Ns; the BigNs grid
// and the fixed-size ablation/bound experiments keep their preset sizes),
// req.Trials overrides the per-point trial count, and req.Experiments
// picks the defs (empty = all). An unknown experiment id fails with the
// shared sweep.UnknownName error naming every id that does exist — the
// same message shape whether the request came from cmd/experiments' -only
// flag or the daemon's POST /v1/jobs body. A suite whose trials sum above
// sweep.MaxUnits is refused, so a requeued job is checked again.
//
// Resolve is the one id-to-points catalog: cmd/experiments and cmd/popsimd
// both route through it, so a job submitted over HTTP runs exactly the
// trials the CLI would. The request's engine environment (its backend) is
// resolved here once and bound into every trial closure — two suites
// resolved from requests with different environments run concurrently in
// one process without interfering.
func Resolve(req sweep.SpecRequest) (Suite, error) {
	return ResolveEnv(req, nil)
}

// ResolveEnv is Resolve with trajectory instrumentation attached to the
// suite's env — the CLI path, where the -history/-snapshot flags exist
// (the serializable request cannot carry them). Only F2 is instrumented,
// so an active traj needs F2 in the selection. -restore is rejected: a
// suite runs F2 at several sizes and trials, and one snapshot is one run
// (cmd/fig2 and cmd/popsim resume it).
func ResolveEnv(req sweep.SpecRequest, traj *sweep.Trajectory) (Suite, error) {
	if err := req.Validate(); err != nil {
		return Suite{}, err
	}
	if traj.Active() {
		if traj.Restore != "" {
			return Suite{}, fmt.Errorf("-restore resumes one specific run; use fig2 -ns <n> -trials 1 or popsim -trials 1 instead")
		}
		if err := traj.Validate(); err != nil {
			return Suite{}, err
		}
	}
	env, err := EnvFor(req)
	if err != nil {
		return Suite{}, err
	}
	env.Traj = traj
	p := DefaultParams()
	if req.Quick {
		p = QuickParams()
	}
	if len(req.Ns) > 0 {
		p.Ns = req.Ns
	}
	if req.Trials > 0 {
		p.Trials = req.Trials
	}
	defs := DefaultDefs(env, core.FastConfig(), synthcoin.FastConfig(), p)

	ids := make([]string, 0, len(defs))
	byID := make(map[string]Def, len(defs))
	for _, d := range defs {
		ids = append(ids, d.ID)
		byID[d.ID] = d
	}
	suite := Suite{Env: env, Params: p}
	if len(req.Experiments) == 0 {
		suite.Defs = defs
	} else {
		selected := map[string]bool{}
		for _, id := range req.Experiments {
			if _, ok := byID[id]; !ok {
				return Suite{}, sweep.UnknownName("experiment", id, ids)
			}
			selected[id] = true
		}
		// Keep index order regardless of the request's order, so reports
		// and record streams stay canonical.
		for _, d := range defs {
			if selected[d.ID] {
				suite.Defs = append(suite.Defs, d)
			}
		}
	}
	instrumented := false
	for _, d := range suite.Defs {
		suite.Points = append(suite.Points, d.Points...)
		instrumented = instrumented || d.ID == "F2"
	}
	if traj.Active() && !instrumented {
		return Suite{}, fmt.Errorf("-history/-snapshot instrument trajectory-capable experiments only (F2; got -only %s)",
			strings.Join(req.Experiments, ","))
	}
	if err := sweep.CheckUnits(suite.Points); err != nil {
		return Suite{}, err
	}
	return suite, nil
}

// ResolvePoints adapts Resolve to the point-resolver shape the jobs
// subsystem consumes (it has no use for the defs or params).
func ResolvePoints(req sweep.SpecRequest) ([]sweep.Point, error) {
	suite, err := Resolve(req)
	if err != nil {
		return nil, err
	}
	return suite.Points, nil
}
