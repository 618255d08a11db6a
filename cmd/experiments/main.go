// Command experiments runs the full reproduction suite (DESIGN.md's
// per-experiment index: F2, E1–E18, A1–A3) through the sweep
// orchestration subsystem: every selected experiment's trials enter one
// global work queue executed by a bounded worker pool, one JSONL record is
// streamed per completed trial, and the tables are rendered from the
// records. It prints every table as markdown and writes per-experiment
// CSVs, a combined markdown report, and a summary CSV (mean/stddev/
// bootstrap CI per field) under -out.
//
// -quick shrinks population sizes and trial counts for a fast smoke run;
// the default sizing matches EXPERIMENTS.md; -only selects a
// comma-separated subset (e.g. -only F2,E12); -backend selects the
// simulation engine (auto|seq|batch|dense). The JSONL stream doubles as
// a checkpoint: -resume skips every trial already recorded in -jsonl and
// appends only the missing ones, so an interrupted sweep finishes where it
// left off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/popsim/popsize/internal/expt"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "reduced sizes and trials")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	outDir := flag.String("out", "results", "output directory (empty = stdout only)")
	sf := sweep.Register(flag.CommandLine, "")
	flag.Parse()

	// The -quick/-only selection folds into the same serializable request
	// the popsimd daemon accepts; expt.Resolve is the shared catalog, so an
	// unknown -only id fails with the identical listing a bad POST body
	// would get.
	sf.Quick = *quick
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			sf.Experiments = append(sf.Experiments, id)
		}
	}
	// Trajectory instrumentation (-history/-snapshot) applies to the
	// instrumented generator (F2), tag-suffixed per (n, trial); it rides
	// the suite's engine environment into the trial closures.
	suite, err := expt.ResolveEnv(sf.SpecRequest, &sf.Trajectory)
	if err != nil {
		return err
	}
	chosen, points, p := suite.Defs, suite.Points, suite.Params

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		if sf.JSONL == "" {
			sf.JSONL = filepath.Join(*outDir, "sweep.jsonl")
		}
	}

	// SIGINT/SIGTERM cancel the sweep between trials instead of killing
	// the process mid-write: completed trials stay checkpointed in -jsonl,
	// and the error below points at -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One global queue: trials from every selected experiment interleave
	// across the worker pool, and each completed trial is checkpointed.
	start := time.Now()
	res, err := sf.ExecuteContext(ctx, points, nil)
	if errors.Is(err, context.Canceled) {
		return fmt.Errorf("interrupted after %d completed trials — they are checkpointed in %s; rerun with -resume to finish the sweep",
			res.Len(), orStdout(sf.JSONL))
	}
	if err != nil {
		return err
	}
	fmt.Printf("sweep: %d trials in %.1fs (backend=%s, jsonl=%s)\n\n",
		res.Len(), time.Since(start).Seconds(), suite.Env.Backend, orStdout(sf.JSONL))

	var report strings.Builder
	report.WriteString("# Experiment report\n\ngenerated by cmd/experiments\n\n")
	for _, d := range chosen {
		table := d.Render(res)
		if d.ID == "F2" {
			fmt.Println(stats.ASCIIPlotLogX("Figure 2 (reproduced)", expt.Fig2Points(res, p.Ns), 64, 16))
		}
		fmt.Printf("== %s ==\n%s\n", d.ID, table.Markdown())
		report.WriteString(table.Markdown() + "\n")
		if *outDir != "" {
			path := filepath.Join(*outDir, strings.ToLower(d.ID)+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				return err
			}
		}
	}

	summary := sweep.SummaryTable(res.Sorted(), sweep.BootstrapResamples, sf.Seed)
	if *outDir != "" {
		reportPath := filepath.Join(*outDir, "report.md")
		if err := os.WriteFile(reportPath, []byte(report.String()), 0o644); err != nil {
			return err
		}
		summaryPath := filepath.Join(*outDir, "summary.csv")
		if err := os.WriteFile(summaryPath, []byte(summary.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", reportPath, "and", summaryPath)
	} else {
		fmt.Println(summary.Markdown())
	}
	return nil
}

func orStdout(path string) string {
	if path == "" {
		return "(none)"
	}
	return path
}
