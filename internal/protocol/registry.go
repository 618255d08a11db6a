// Package protocol is the registry the CLI dispatches on: every runnable
// protocol — the paper's estimation pipeline and its baselines as well as
// the table-compiled zoo — registers an Info mapping its name to a
// factory that builds a sweep-compatible runner. cmd/popsim resolves
// -protocol through Lookup, the experiment defs build their trial
// functions from the same factories, and an unknown name fails with the
// full list of registered names (sweep.UnknownName).
//
// The zoo protocols in this package are written as declarative
// pop.Table transition tables (see internal/pop/table.go) and run through
// the generic table harness in table.go, which supplies engine
// construction, convergence-predicate driving, per-trial history streams,
// snapshot/restore instrumentation and transition-resolution statistics
// uniformly. Protocols needing machinery beyond a table (the main
// estimation protocol, the baselines) register from cmd/popsim, where the
// higher-level packages they depend on are in scope.
package protocol

import (
	"fmt"
	"sort"
	"sync"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
)

// Config is everything a protocol factory needs to build a runner for
// one (n, trials) point: sizing, the paper-vs-fast preset switch, the
// engine backend selection, optional instrumentation, and the error sink
// trial functions report through (sweep treats trial values as opaque, so
// a live failure must escape sideways to abort the command).
type Config struct {
	N       int
	Trials  int
	Paper   bool
	Backend pop.Backend
	// CollectStats makes the runner record per-trial transition-resolution
	// counters (pop.Stats) for StatsLines (cmd/popsim -stats).
	CollectStats bool
	// Traj is the trajectory instrumentation (-history/-snapshot/
	// -restore); nil or inactive runs uninstrumented.
	Traj    *sweep.Trajectory
	OnError func(error)
}

// engineOpts assembles the common engine options for one trial.
func (c Config) engineOpts(seed uint64) []pop.Option {
	return []pop.Option{pop.WithSeed(seed), pop.WithBackend(c.Backend)}
}

// Fail reports a trial failure to the configured sink, if any. Trial
// functions call it instead of returning an error — the sweep layer
// treats trial values as opaque, so failures escape sideways.
func (c Config) Fail(err error) {
	if c.OnError != nil && err != nil {
		c.OnError(err)
	}
}

// Restored reads cfg's -restore snapshot, if one was requested, and
// returns it with the effective population size (the snapshot's, which
// wins over cfg.N) and the banner the CLI prints before the trials.
func Restored[S comparable](cfg Config) (snap *pop.Snapshot[S], n int, note string, err error) {
	snap, err = sweep.ReadRestore[S](cfg.Traj)
	if err != nil || snap == nil {
		return nil, cfg.N, "", err
	}
	return snap, snap.N, fmt.Sprintf("restoring from %s: backend=%s n=%d", cfg.Traj.Restore, snap.Backend, snap.N), nil
}

// Runner is a protocol instantiated at one (n, trials) point: a sweep
// trial function plus the rendering hooks the CLI uses around it.
type Runner struct {
	// N is the effective population size — Config.N, unless a restore
	// snapshot carries its own population, which wins.
	N int
	// Note, when non-empty, is printed once before the trials run (e.g.
	// the restore banner).
	Note string
	// Run executes one trial.
	Run sweep.TrialFunc
	// Format renders one recorded trial's values as the per-trial output
	// line.
	Format func(v sweep.Values) string
	// StatsLines, when non-nil, returns the per-trial transition-
	// resolution summaries collected under Config.CollectStats, in trial
	// order.
	StatsLines func() []string
}

// Info is one registry entry.
type Info struct {
	// Name is the -protocol selector.
	Name string
	// Desc is the one-line description shown in the CLI usage text.
	Desc string
	// Trajectory reports whether the protocol honors Config.Traj —
	// -history/-snapshot/-restore are rejected for protocols that would
	// silently ignore them.
	Trajectory bool
	// New builds a runner for one configuration.
	New func(cfg Config) (*Runner, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Info{}
)

// Register adds a protocol to the registry. It panics on an empty name, a
// nil factory, or a duplicate registration — all programming errors in
// package init.
func Register(info Info) {
	if info.Name == "" || info.New == nil {
		panic("protocol: Register needs a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic("protocol: duplicate registration of " + info.Name)
	}
	registry[info.Name] = info
}

// Names returns the registered protocol names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TrajectoryNames returns the names of the protocols honoring trajectory
// instrumentation, sorted.
func TrajectoryNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var names []string
	for name, info := range registry {
		if info.Trajectory {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a protocol name; an unknown name errors with the full
// registered list.
func Lookup(name string) (Info, error) {
	regMu.RLock()
	info, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Info{}, sweep.UnknownName("protocol", name, Names())
	}
	return info, nil
}
