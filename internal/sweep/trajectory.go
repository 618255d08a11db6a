package sweep

import (
	"fmt"
	"math"
	"os"
	"strings"

	"github.com/popsim/popsize/internal/pop"
)

// Trajectory is the single-run instrumentation requested on the command
// line, observing a run from outside because the estimator converges but
// never terminates: History streams a sampled configuration trajectory
// (one HistoryRecord JSONL line every HistoryEvery time units), Snapshot
// writes a versioned engine snapshot at time SnapshotAt (or at run end
// when <= 0), and Restore resumes a run from a snapshot file instead of a
// fresh engine. Artifact paths are tag-suffixed per trial (TagPath), so
// concurrent trials never share a file. It is read-only once trials
// start, so worker goroutines share one value without coordination.
type Trajectory struct {
	History      string
	HistoryEvery float64
	Snapshot     string
	SnapshotAt   float64
	Restore      string
}

// Active reports whether any instrumentation was requested.
func (t *Trajectory) Active() bool {
	return t != nil && (t.History != "" || t.Snapshot != "" || t.Restore != "")
}

// Validate checks the sampling interval of a requested history stream.
func (t *Trajectory) Validate() error {
	if t.History != "" && (!(t.HistoryEvery > 0) || math.IsInf(t.HistoryEvery, 0)) {
		return fmt.Errorf("-history-dt must be a positive finite interval (got %v)", t.HistoryEvery)
	}
	return nil
}

// TagPath inserts tag before the path's extension ("hist.jsonl", "t2" →
// "hist.t2.jsonl"), or appends it when the final path element has none,
// so concurrent trials never write through the same file name.
func TagPath(path, tag string) string {
	if tag == "" {
		return path
	}
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		return path[:i] + "." + tag + path[i:]
	}
	return path + "." + tag
}

// Observe returns the engine observers (pop.RunObserved) for one run
// tagged tag: a History on t's Δ grid and a sink writing the snapshot
// file. After the run, finish writes the history JSONL and returns the
// first artifact I/O error. A nil or inactive t observes nothing.
func Observe[S comparable](t *Trajectory, tag string) (obs pop.Observers[S], finish func() error) {
	if t == nil {
		return obs, func() error { return nil }
	}
	var err error
	if t.History != "" {
		obs.History = pop.NewHistory[S](t.HistoryEvery)
	}
	if t.Snapshot != "" {
		path := TagPath(t.Snapshot, tag)
		obs.SnapshotAt = t.SnapshotAt
		obs.Snapshot = func(s *pop.Snapshot[S]) {
			if werr := pop.WriteSnapshotFile(path, s); werr != nil {
				err = fmt.Errorf("writing snapshot %s: %w", path, werr)
			}
		}
	}
	finish = func() error {
		if err != nil || obs.History == nil {
			return err
		}
		path := TagPath(t.History, tag)
		fh, cerr := os.Create(path)
		if cerr != nil {
			return fmt.Errorf("creating history stream: %w", cerr)
		}
		werr := WriteHistory(fh, HistoryRecords(obs.History.Samples()))
		if cerr := fh.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing history %s: %w", path, werr)
		}
		return nil
	}
	return obs, finish
}

// ReadRestore parses t's -restore snapshot file, or returns nil when none
// was requested. Reading it eagerly fails a malformed file before any
// trial runs.
func ReadRestore[S comparable](t *Trajectory) (*pop.Snapshot[S], error) {
	if t == nil || t.Restore == "" {
		return nil, nil
	}
	snap, err := pop.ReadSnapshotFile[S](t.Restore)
	if err != nil {
		return nil, fmt.Errorf("-restore: %w", err)
	}
	return snap, nil
}
