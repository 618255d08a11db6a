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
	"sort"
	"strings"
	"sync"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
)

// Instrumentation carries single-run trajectory instrumentation requested
// on the command line: a sampled-configuration history stream, a
// versioned engine snapshot, and/or a snapshot to resume from. Paths are
// tag-suffixed per trial (TagPath) so concurrent trials never share a
// file.
type Instrumentation struct {
	HistoryPath  string
	HistoryEvery float64
	SnapshotPath string
	SnapshotAt   float64
	RestorePath  string
}

// Active reports whether any instrumentation was requested.
func (i *Instrumentation) Active() bool {
	return i != nil && (i.HistoryPath != "" || i.SnapshotPath != "" || i.RestorePath != "")
}

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
	Par     int
	// CollectStats makes the runner record per-trial transition-resolution
	// counters (pop.Stats) for StatsLines (cmd/popsim -stats).
	CollectStats bool
	Traj         *Instrumentation
	OnError      func(error)
}

// engineOpts assembles the common engine options for one trial.
func (c Config) engineOpts(seed uint64) []pop.Option {
	return []pop.Option{pop.WithSeed(seed), pop.WithBackend(c.Backend), pop.WithParallelism(c.Par)}
}

// Fail reports a trial failure to the configured sink, if any. Trial
// functions call it instead of returning an error — the sweep layer
// treats trial values as opaque, so failures escape sideways.
func (c Config) Fail(err error) {
	if c.OnError != nil && err != nil {
		c.OnError(err)
	}
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

// TagPath inserts tag before the path's extension ("hist.jsonl", "t2" →
// "hist.t2.jsonl"), or appends it when the final path element has none,
// so concurrent trials never write through the same file name. (The same
// convention expt's Env.RunCore applies to the main protocol's artifacts.)
func TagPath(path, tag string) string {
	if tag == "" {
		return path
	}
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		return path[:i] + "." + tag + path[i:]
	}
	return path + "." + tag
}
