// Command fig2 regenerates the paper's Figure 2: simulated convergence
// time of the Log-Size-Estimation protocol vs population size, 10 trials
// per size, rendered as a table, a CSV, and an ASCII scatter plot with a
// logarithmic x axis (the paper's format). Trials run through the sweep
// subsystem, so -jsonl records every trial and -resume continues an
// interrupted run.
//
// By default it uses the fast constant preset and n ∈ {100, 1000, 10000};
// -ns overrides the size grid (comma-separated), -full adds n = 100000
// and -paper switches to the 95/5 constants of Protocol 1 (≈30× more
// interactions; budget accordingly). -backend selects the simulation
// engine (auto|seq|batch|dense).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/expt"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fig2:", err)
		os.Exit(1)
	}
}

// parseNs parses the -ns grid: comma-separated population sizes, each at
// least 2, in any order (kept as given — the plot sorts on its log axis).
// Duplicates are dropped: a repeated size would expand into sweep points
// with identical (experiment, n, trial) keys, double-running every trial
// and writing duplicate checkpoint records.
func parseNs(s string) ([]int, error) {
	var ns []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad -ns entry %q: %w", part, err)
		}
		if n < 2 {
			return nil, fmt.Errorf("bad -ns entry %d: population sizes need at least 2 agents", n)
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("-ns %q contains no population sizes", s)
	}
	return ns, nil
}

// run is the command body, parameterized on its argument list and output
// stream so the CLI tests can exercise flag parsing and a smoke-sized
// end-to-end sweep without spawning a process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	fs.SetOutput(stdout)
	full := fs.Bool("full", false, "add n = 100000")
	paper := fs.Bool("paper", false, "use the paper's constants (95/5)")
	trials := fs.Int("trials", 10, "trials per population size (paper: 10)")
	nsFlag := fs.String("ns", "100,1000,10000", "comma-separated population sizes")
	outDir := fs.String("out", "results", "directory for fig2.csv (empty = skip)")
	sf := sweep.Register(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}

	env, err := expt.EnvFor(sf.SpecRequest)
	if err != nil {
		return err
	}
	// Trajectory instrumentation (-history/-snapshot/-restore) applies to
	// every F2 trial, with artifact paths tag-suffixed per (n, trial).
	if err := sf.Trajectory.Validate(); err != nil {
		return err
	}
	env.Traj = &sf.Trajectory
	if env.Restore, err = sweep.ReadRestore[core.State](env.Traj); err != nil {
		return err
	}

	cfg := core.FastConfig()
	if *paper {
		cfg = core.PaperConfig()
	}
	ns, err := parseNs(*nsFlag)
	if err != nil {
		return err
	}
	if *full && !slices.Contains(ns, 100000) {
		ns = append(ns, 100000)
	}
	// A snapshot is one run: resuming it under any other (n, trial) label
	// would record the same continuation in every row.
	if s := env.Restore; s != nil && (*trials != 1 || len(ns) != 1 || ns[0] != s.N) {
		return fmt.Errorf("-restore resumes one run of n=%d; use -ns %d -trials 1", s.N, s.N)
	}

	d := expt.Fig2Def(env, cfg, ns, *trials)
	res, err := sf.Execute(d.Points, nil)
	if err != nil {
		return err
	}
	table := d.Render(res)
	fmt.Fprintln(stdout, table.Markdown())
	fmt.Fprintln(stdout, stats.ASCIIPlotLogX("Figure 2: convergence time vs population size (log10 x)",
		expt.Fig2Points(res, ns), 64, 18))

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, "fig2.csv")
		if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	return nil
}
