// Command popsim runs one of the repository's population protocols on a
// chosen population size and reports per-trial results. Protocols are
// resolved through the internal/protocol registry — the paper's
// estimation pipeline and its baselines plus the table-compiled zoo
// (epidemic, approxmajority, repeatmajority, junta, bkrcount) — and an
// unknown -protocol fails with the full registered list. Trials execute
// through the sweep subsystem: they parallelize across -workers, derive
// per-trial seeds via pop.TrialSeed (so different protocols sharing a base
// seed never reuse a random stream), and can be recorded to -jsonl and
// resumed with -resume.
//
// Usage:
//
//	popsim -protocol main -n 10000 -trials 5 -seed 1 [-paper] [-backend auto|seq|batch|dense]
//
// The dense backend makes very large populations practical (its state is
// the count vector, never an agent array): -protocol weak -n 1000000000
// runs in ordinary memory; each trial runs on one core. -stats prints each trial's
// transition-resolution counters — how many pair transitions the
// declared-table bypass, the deterministic-transition cache and actual
// rule invocations resolved, and how many interactions were stepped on an
// agent array (whose rule calls go uncounted) — on every backend.
//
// -history/-snapshot/-restore instrument trajectory-capable protocols
// (the main pipeline and every table-compiled zoo protocol).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"github.com/popsim/popsize/internal/protocol"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "popsim:", err)
		os.Exit(1)
	}
}

// errBox collects the first trial error across worker goroutines, so a
// failing protocol run still aborts the command with a nonzero exit (the
// sweep layer itself treats trial values as opaque).
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) set(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil {
		b.err = err
	}
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// run is the command body, parameterized on its argument list and output
// stream so the CLI tests can exercise flag parsing, backend/parallelism
// selection and end-to-end trial output without spawning a process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("popsim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	name := fs.String("protocol", "main", "protocol name: "+strings.Join(protocol.Names(), "|"))
	n := fs.Int("n", 1000, "population size")
	trials := fs.Int("trials", 3, "number of independent runs")
	paper := fs.Bool("paper", false, "use the paper's constants (95/5) instead of the fast preset")
	showStats := fs.Bool("stats", false, "print per-trial transition-resolution counters (table/cache/rule/seq)")
	sf := sweep.Register(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}

	backend, err := sf.ParseBackend()
	if err != nil {
		return err
	}
	info, err := protocol.Lookup(*name)
	if err != nil {
		return err
	}
	if traj := &sf.Trajectory; traj.Active() {
		if !info.Trajectory {
			return fmt.Errorf("-history/-snapshot/-restore instrument trajectory-capable protocols only (%s; got -protocol %s)",
				strings.Join(protocol.TrajectoryNames(), ", "), info.Name)
		}
		if err := traj.Validate(); err != nil {
			return err
		}
		if traj.Restore != "" && *trials != 1 {
			return fmt.Errorf("-restore resumes one specific run; use -trials 1 (got %d)", *trials)
		}
	}

	var box errBox
	r, err := info.New(protocol.Config{
		N: *n, Trials: *trials, Paper: *paper,
		Backend:      backend,
		CollectStats: *showStats, Traj: &sf.Trajectory, OnError: box.set,
	})
	if err != nil {
		return err
	}
	*n = r.N // a restore snapshot carries the population; -n is ignored
	if r.Note != "" {
		fmt.Fprintln(stdout, r.Note)
	}
	logN := math.Log2(float64(*n))
	fmt.Fprintf(stdout, "protocol=%s n=%d log2(n)=%.3f trials=%d\n", info.Name, *n, logN, *trials)

	res, err := sf.Execute([]sweep.Point{{
		Experiment: info.Name, N: *n, Trials: *trials, Run: r.Run,
	}}, nil)
	if err != nil {
		return err
	}
	if err := box.get(); err != nil {
		return err
	}
	for t := 0; t < *trials; t++ {
		rec, ok := res.Get(info.Name, *n, t)
		if !ok {
			return fmt.Errorf("trial %d missing from sweep results", t)
		}
		// Failed trials are recorded with NaN values; a live failure is
		// caught by the errBox above, but a NaN replayed from a -resume
		// checkpoint must not print as garbage and exit 0.
		for field, v := range rec.Values {
			if math.IsNaN(v) {
				return fmt.Errorf("trial %d: recorded %q is NaN — the trial failed when it was checkpointed; rerun it by deleting %s or dropping -resume", t, field, sf.JSONL)
			}
		}
		fmt.Fprintf(stdout, "trial %d: %s\n", t, r.Format(rec.Values))
	}
	if *showStats {
		lines := []string{"(not collected for this protocol)"}
		if r.StatsLines != nil {
			if got := r.StatsLines(); len(got) > 0 {
				lines = got
			}
		}
		fmt.Fprintln(stdout, "transition resolution (table bypass / cache / rule calls):")
		for _, line := range lines {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
	}
	if sf.History != "" && *trials == 1 {
		if err := printTrajectory(stdout, sf.History); err != nil {
			return err
		}
	}
	return nil
}

// printTrajectory reads a just-written history JSONL stream back and
// renders its per-sample digest table (reading through sweep.ReadHistory
// keeps the CLI on the same decoder any downstream tooling would use).
func printTrajectory(stdout io.Writer, path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	recs, err := sweep.ReadHistory(fh)
	if err != nil {
		return fmt.Errorf("reading back history %s: %w", path, err)
	}
	pts := make([]stats.TrajPoint, len(recs))
	for i, rec := range recs {
		live, top := stats.TrajDigest(rec.Config, rec.N)
		pts[i] = stats.TrajPoint{
			Time: rec.Time, N: rec.N, Interactions: rec.Interactions,
			Live: live, TopShare: top,
		}
	}
	fmt.Fprintln(stdout)
	table := stats.TrajectoryTable("Trajectory ("+path+")", pts)
	fmt.Fprint(stdout, table.Markdown())
	return nil
}
