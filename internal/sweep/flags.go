package sweep

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
)

// Flags bundles the command-line surface shared by the sweep-driven
// commands (cmd/experiments, cmd/fig2, cmd/popsim). The serializable knobs
// — backend, workers, seed, and the experiment/grid selection the
// commands bind to their own flags — live in the embedded SpecRequest, so
// the CLI and the popsimd daemon's job submissions share one source of
// truth for defaults and validation. JSONL/Resume (the local checkpoint
// file) and the trajectory instrumentation are invocation-local and stay
// here.
type Flags struct {
	SpecRequest

	JSONL  string
	Resume bool

	// Trajectory is the single-run instrumentation (-history,
	// -history-dt, -snapshot, -snapshot-at, -restore).
	Trajectory
}

// Register declares the shared flags on fs (use flag.CommandLine for a
// command's top level). defaultJSONL may be empty to disable the record
// stream unless the user asks for it.
func Register(fs *flag.FlagSet, defaultJSONL string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Backend, "backend", "auto", "simulation backend: auto|seq|batch|dense")
	fs.IntVar(&f.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.Uint64Var(&f.Seed, "seed", 1, "base random seed (per-trial seeds derive from it)")
	fs.StringVar(&f.JSONL, "jsonl", defaultJSONL, "sweep record stream / checkpoint file (empty = none)")
	fs.BoolVar(&f.Resume, "resume", false, "skip trials already recorded in -jsonl and append the rest")
	fs.StringVar(&f.History, "history", "", "stream a sampled configuration trajectory to this JSONL file (empty = none)")
	fs.Float64Var(&f.HistoryEvery, "history-dt", 1, "trajectory sampling interval Δ in parallel-time units (with -history)")
	fs.StringVar(&f.Snapshot, "snapshot", "", "write a versioned engine snapshot to this file (empty = none)")
	fs.Float64Var(&f.SnapshotAt, "snapshot-at", 0, "parallel time at which to take the -snapshot (<= 0: at run end)")
	fs.StringVar(&f.Restore, "restore", "", "resume the run from this engine snapshot file instead of a fresh engine")
	return f
}

// OpenCheckpoint prepares the record stream at path — the one definition
// of "open a sweep checkpoint for writing", shared by the CLI commands
// (Flags.Execute) and the daemon's per-job runner. With resume set it
// loads the existing records into a Done map and opens the file for
// append, truncating any torn tail first so a rerun record cannot coexist
// with its half-written predecessor; otherwise it truncates the whole
// file. An empty path returns (nil, nil, nil): no stream, no checkpoint.
// The caller owns closing out.
func OpenCheckpoint(path string, resume bool) (done map[Key]Record, out *os.File, err error) {
	if path == "" {
		return nil, nil, nil
	}
	if resume {
		done, validLen, err := loadCheckpointTrim(path)
		if err != nil {
			return nil, nil, fmt.Errorf("loading checkpoint %s: %w", path, err)
		}
		out, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, nil, err
		}
		if err := out.Truncate(validLen); err != nil {
			out.Close()
			return nil, nil, err
		}
		if _, err := out.Seek(validLen, io.SeekStart); err != nil {
			out.Close()
			return nil, nil, err
		}
		return done, out, nil
	}
	out, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return nil, out, nil
}

// Execute runs points under the flags with no external cancellation; it is
// ExecuteContext(context.Background(), points, onRecord).
func (f *Flags) Execute(points []Point, onRecord func(Record)) (*Results, error) {
	return f.ExecuteContext(context.Background(), points, onRecord)
}

// ExecuteContext runs points under the flags: it binds the embedded
// request to the points, loads the JSONL checkpoint when -resume is set
// (truncating the file otherwise), streams new records, and returns the
// merged results. Canceling ctx stops the sweep between units — completed
// trials stay checkpointed, and ctx's error is returned so the command can
// tell an interrupt from a failure. onRecord (optional) observes every
// record, resumed and fresh.
func (f *Flags) ExecuteContext(ctx context.Context, points []Point, onRecord func(Record)) (*Results, error) {
	if f.Resume && f.JSONL == "" {
		return nil, fmt.Errorf("-resume requires -jsonl (there is no checkpoint file to resume from)")
	}
	spec, err := f.SpecRequest.Spec(points)
	if err != nil {
		return nil, err
	}
	opt := Options{OnRecord: onRecord}
	done, out, err := OpenCheckpoint(f.JSONL, f.Resume)
	if err != nil {
		return nil, err
	}
	if out != nil {
		defer out.Close()
		opt.Out = out
	}
	opt.Done = done
	return RunContext(ctx, spec, opt)
}
