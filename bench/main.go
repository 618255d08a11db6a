// Command bench is the simulator's end-to-end benchmark. Each run times one
// workload in its own process for a fixed budget, checks every output the
// workload produced, prints each metric as "workload metric value unit"
// and ends with one JSON result line. The metric list, units and
// regression bounds live in BENCHMARK.json at the repository root;
// README.md says why each workload exists and which layer metric explains
// which end-to-end number.
//
//	bash bench/run.sh --workload <name> --seed <s> --seconds <t> --trace <0|1> [--out runs.jsonl]
//	bash bench/run.sh --compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is what a workload gets from the command line.
type runConfig struct {
	name   string // workload name, mixed into every derived seed
	seed   uint64
	budget time.Duration
	tr     *recorder // nil on timed runs
}

// A workload runs its set-up and timed ops and reports what it measured.
type workload func(runConfig) (*outcome, error)

// workloads maps each name in BENCHMARK.json to its production sizing.
var workloads = map[string]workload{
	"estimate-16k":       func(c runConfig) (*outcome, error) { return runEstimate(c, estimateSize) },
	"steady-dense-1e9":   func(c runConfig) (*outcome, error) { return runSteady(c, steadySize) },
	"majority-dense-1e8": func(c runConfig) (*outcome, error) { return runMajority(c, majoritySize) },
	"service-quick":      func(c runConfig) (*outcome, error) { return runService(c, nil) },
}

// outcome is what one workload run measured.
type outcome struct {
	setup     []float64    // seconds per set-up repetition
	latency   []float64    // seconds a user waited for each result
	work      float64      // work units the timed ops completed
	busy      float64      // seconds inside the timed ops
	heap      uint64       // largest live heap read by noteHeap
	counts    engineCounts // engine counters summed over the ops
	live      []float64    // live-state counts probed in a traced run
	attempted int          // ops run: trials, chunks, runs or jobs
	failed    int
	errs      []string
	layer     map[string]layerValue // per-layer metrics (traced runs)
	det       map[string]string     // counts that repeat exactly for a seed
	notes     []string              // informational lines
}

// layerValue is one per-layer metric; base names what a ratio is a share
// of, and is printed beside it.
type layerValue struct {
	v    float64
	base string
}

func newOutcome() *outcome {
	return &outcome{layer: map[string]layerValue{}, det: map[string]string{}}
}

func (o *outcome) setLayer(name string, v float64, base string) { o.layer[name] = layerValue{v, base} }

// fail records one failed op.
func (o *outcome) fail(err error) {
	o.failed++
	o.errs = append(o.errs, err.Error())
}

// noteHeap collects garbage and records the live heap; ops call it
// after their timed part, while their state is still reachable.
func (o *outcome) noteHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.heap = max(o.heap, ms.HeapAlloc)
}

// timeOps runs op(0), op(1), … while the next op, taking as long as the
// mean so far, would still end within budget; it always runs one. op
// prepares and checks outside its timed part and returns the work it
// completed, the seconds its timed part took and the first check that
// failed.
func (o *outcome) timeOps(budget time.Duration, op func(i int) (work, secs float64, err error)) {
	start := time.Now()
	for i := 0; i == 0 || nextFits(start, i, budget); i++ {
		work, secs, err := op(i)
		o.attempted++
		o.busy += secs
		if err != nil {
			o.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		o.work += work
	}
}

// nextFits reports whether one more op, as long as the mean of the done
// ones, ends within budget of start.
func nextFits(start time.Time, done int, budget time.Duration) bool {
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(done) <= budget
}

// timeSetup runs f, which must leave the workload ready for its first
// timed call, at least three times and until a quarter second has passed
// (at most a hundred times), and records each run's wall time; setup_s is
// their median.
func (o *outcome) timeSetup(f func() error) error {
	start := time.Now()
	for i := 0; i < 3 || (i < 100 && time.Since(start) < time.Second/4); i++ {
		t := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t).Seconds())
	}
	return nil
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metricValue and result are the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of a --out file, the input of --compare.
type runRecord struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Det      map[string]string `json:"det"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed the workload derives its inputs from")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1: traced run that reports the per-layer metrics")
	out := fs.String("out", "", "append the run's record to this JSONL file")
	cmp := fs.String("compare", "", "compare the runs in this file (parent) with the file named by the next argument (change)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *cmp != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: --compare needs two files: parent.jsonl change.jsonl")
			return 2
		}
		return runCompare(spec, *cmp, fs.Arg(0), stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	c := runConfig{name: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	rec, err := measure(spec, w, c, *trace == 1, filepath.Join(".bench_build", "spans"), stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs one workload and prints its metrics and result line. A
// traced run writes its spans to a file in spansDir.
func measure(spec benchSpec, w workload, c runConfig, traced bool, spansDir string, stdout, stderr io.Writer) (runRecord, error) {
	start := time.Now()
	if traced {
		c.tr = newRecorder()
	}
	o, err := w(c)
	if err != nil {
		return runRecord{}, err
	}
	wall := time.Since(start).Seconds()
	for _, e := range o.errs {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", c.name, e)
	}

	values := map[string]layerValue{}
	list := spec.EndToEnd
	if traced {
		spans := c.tr.recorded()
		overhead := float64(len(spans)) * spanCost()
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "trace.") {
				overhead += s.End - s.Start
			}
		}
		o.setLayer("trace.overhead_frac", overhead/wall, fmt.Sprintf("%.3f s traced wall time, %d spans", wall, len(spans)))
		values = o.layer
		list = spec.PerLayer
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", c.name, c.seed))
		if err := writeSpans(path, spans); err != nil {
			return runRecord{}, err
		}
		o.notes = append(o.notes, fmt.Sprintf("spans written to %s", path))
	} else {
		values["setup_s"] = layerValue{median(o.setup), fmt.Sprintf("median of %d set-ups", len(o.setup))}
		values["work_per_s"] = layerValue{o.work / o.busy, fmt.Sprintf("%.6g work units in %.3f s", o.work, o.busy)}
		values["latency_s_mean"] = layerValue{mean(o.latency), fmt.Sprintf("%d samples", len(o.latency))}
		values["heap_mb"] = layerValue{float64(o.heap) / (1 << 20), fmt.Sprintf("largest of %d post-op readings", o.attempted)}
		o.notes = append(o.notes, fmt.Sprintf("latency_s_p50 %.6g s (%d samples)", median(o.latency), len(o.latency)))
		if p, beyond, ok := tailPercentile(len(o.latency)); ok && p > 0.5 {
			o.notes = append(o.notes, fmt.Sprintf("latency_s_p%g %.6g s (%d samples, %d above it)",
				100*p, percentile(o.latency, p), len(o.latency), beyond))
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return runRecord{}, fmt.Errorf("getrusage: %w", err)
	}
	o.notes = append(o.notes, fmt.Sprintf("peak_rss_mb %.6g MB", float64(ru.Maxrss)/1024))

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, m := range list {
		known[m.Name] = true
		v, ok := values[m.Name]
		if !ok && !traced {
			return runRecord{}, fmt.Errorf("no value for end-to-end metric %s", m.Name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return runRecord{}, fmt.Errorf("metric %s is %v", m.Name, v.v)
		}
		res.Metrics[m.Name] = metricValue{v.v, m.Unit}
		line := fmt.Sprintf("%s %s %.6g %s", c.name, m.Name, v.v, m.Unit)
		if v.base != "" {
			line += " (" + v.base + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	for n := range values {
		if !known[n] {
			return runRecord{}, fmt.Errorf("metric %s is not listed in BENCHMARK.json", n)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "%s %s\n", c.name, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return runRecord{}, err
	}
	fmt.Fprintln(stdout, string(line))
	return runRecord{Workload: c.name, Seed: c.seed, Trace: traced, Result: res, Det: o.det}, nil
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}
