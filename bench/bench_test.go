package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/jobs"
	"github.com/popsim/popsize/internal/pop"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "pop.RunUntil", Start: 1, End: 9},
		{ID: 3, Parent: 2, Name: "core.Converged", Start: 2, End: 3},
		{ID: 4, Parent: 2, Name: "core.Converged", Start: 5, End: 7},
		// Overlaps its sibling: the covered interval counts once.
		{ID: 5, Parent: 2, Name: "trace.LiveStates", Start: 6, End: 8},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 2, 2: 4, 3: 1, 4: 2, 5: 2} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("span %d self time %g, want %g", id, self[id], want)
		}
	}
	if got := layerSelf(spans, self, "core."); got != 3 {
		t.Errorf("core self time %g, want 3", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median %g, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %g, %g, want 2.75, 8.25", q1, q3)
	}
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{26, 0.6, 10, true}, // the -quick mix: p60 is the highest with ten jobs above it
		{20, 0.5, 10, true},
		{11, 0.5, 5, false},
		{1100, 0.99, 11, true},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && (p != c.p || beyond != c.beyond)) {
			t.Errorf("tailPercentile(%d) = p%g with %d above (ok=%v), want p%g with %d (ok=%v)",
				c.n, 100*p, beyond, ok, 100*c.p, c.beyond, c.ok)
		}
	}
}

func TestRatiosCarryTheirBase(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	o.live = []float64{3}
	o.engineOp(0, engineCounts{interactions: 1000, batches: 10, batched: 900, cacheHits: 5, ruleCalls: 3})
	o.timeLayers(nil)
	for name, v := range o.layer {
		ratioLike := strings.Contains(name, "_per_") || strings.HasSuffix(name, "_ratio") ||
			strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_p50")
		if ratioLike && v.base == "" {
			t.Errorf("%s = %g is printed without its base", name, v.v)
		}
	}
}

var toySteady = steadyParams{warmN: 2000, warmTime: 5, scale: 10, chunk: 0.05}

// The derived 10⁹ configuration must be the same in every process: built
// from Engine.Counts in map order, two builds start the dense engine from
// differently ordered state tables and take different trajectories.
func TestSteadyConfigIsCanonical(t *testing.T) {
	p := core.MustNew(core.FastConfig())
	var snaps [2][]byte
	for i := range snaps {
		states, counts := steadyConfig(p, toySteady, 42)
		e := pop.NewEngineFromCounts(states, counts, p.Rule, pop.WithSeed(7), pop.WithBackend(pop.Dense))
		e.RunTime(1)
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snaps[i], err = snap.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("two builds from one seed gave different snapshots")
	}
}

// TestWorkloadsSmoke runs every workload's code path at toy sizes, timed
// and traced, and checks that both runs pass their checks, print every
// metric and agree on the deterministic counts.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	toy := map[string]workload{
		"estimate-16k":       func(c runConfig) (*outcome, error) { return runEstimate(c, 1<<12) },
		"steady-dense-1e9":   func(c runConfig) (*outcome, error) { return runSteady(c, toySteady) },
		"majority-dense-1e8": func(c runConfig) (*outcome, error) { return runMajority(c, 10_000) },
		"service-quick":      func(c runConfig) (*outcome, error) { return runService(c, []string{"F2"}) },
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if toy[w.Name] == nil || workloads[w.Name] == nil {
			t.Fatalf("workload %s has no implementation or no toy sizing", w.Name)
		}
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var dets [2]map[string]string
			for i, traced := range []bool{false, true} {
				var out bytes.Buffer
				c := runConfig{name: w.Name, seed: 3, budget: time.Nanosecond}
				rec, err := measure(spec, toy[w.Name], c, traced, t.TempDir(), &out, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
					t.Fatalf("traced=%v: %+v\n%s", traced, rec.Result, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				list := spec.EndToEnd
				if traced {
					list = spec.PerLayer
				}
				if len(last.Metrics) != len(list) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(last.Metrics), len(list))
				}
				for _, m := range list {
					if !strings.Contains(out.String(), w.Name+" "+m.Name+" ") {
						t.Errorf("traced=%v: no line for %s", traced, m.Name)
					}
					if !traced && last.Metrics[m.Name].Value <= 0 {
						t.Errorf("end-to-end metric %s = %g", m.Name, last.Metrics[m.Name].Value)
					}
				}
				dets[i] = rec.Det
			}
			if len(dets[0]) == 0 {
				t.Fatal("no deterministic counts recorded")
			}
			for k, v := range dets[0] {
				if dets[1][k] != v {
					t.Errorf("tracing changed %s: %s untraced, %s traced", k, v, dets[1][k])
				}
			}
		})
	}
}

// TestChecksRejectCorruptResults feeds each workload's check a result
// corrupted the way a broken layer would corrupt it.
func TestChecksRejectCorruptResults(t *testing.T) {
	good := core.EstimateStats{HaveOutput: 4096, MaxErr: 1.5}
	if err := checkEstimate(4096, true, 900, good); err != nil {
		t.Fatalf("good estimate rejected: %v", err)
	}
	bad := good
	bad.MaxErr = 7.5
	noOutput := good
	noOutput.HaveOutput = 4095
	for name, err := range map[string]error{
		"estimate not converged":      checkEstimate(4096, false, 900, good),
		"estimate error too large":    checkEstimate(4096, true, 900, bad),
		"estimate output missing":     checkEstimate(4096, true, 900, noOutput),
		"chunk lost an agent":         checkPopulation(100, 100, map[int]int{1: 60, 2: 39}),
		"chunk changed N":             checkPopulation(100, 99, map[int]int{1: 60, 2: 40}),
		"majority without consensus":  checkMajority(false, 900, 100, 60),
		"majority on the minority":    checkMajority(true, 30, 100, 0),
		"job failed":                  checkJob(jobs.Status{State: jobs.StateFailed, Units: 8, Records: 8}, 8),
		"job lost a record":           checkJob(jobs.Status{State: jobs.StateDone, Units: 8, Records: 7}, 7),
		"job stream short":            checkJob(jobs.Status{State: jobs.StateDone, Units: 8, Records: 8}, 7),
		"job records differ from run": checkCanonical([]byte(`{"a":1}`+"\n"), []byte(`{"a":2}`+"\n")),
	} {
		if err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	for name, err := range map[string]error{
		"chunk":    checkPopulation(100, 100, map[int]int{1: 60, 2: 40}),
		"majority": checkMajority(true, 30, 100, 100),
		"job":      checkJob(jobs.Status{State: jobs.StateDone, Units: 8, Records: 8}, 8),
	} {
		if err != nil {
			t.Errorf("good %s rejected: %v", name, err)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{
		{Name: "work_per_s", Better: "higher", Bound: 0.1},
		{Name: "op_s_p50", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Better: "lower", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	runs := func(det string, vals map[string][]float64) []runRecord {
		var rs []runRecord
		for i := 0; i < 4; i++ {
			r := runRecord{Workload: "w", Seed: uint64(i), Det: map[string]string{"pop.batches": det},
				Result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
			for m, xs := range vals {
				r.Result.Metrics[m] = metricValue{Value: xs[i]}
			}
			rs = append(rs, r)
		}
		return rs
	}
	parent := runs("7", map[string][]float64{
		"work_per_s": {100, 101, 99, 100},
		"op_s_p50":   {2, 2.02, 1.98, 2},
		"setup_s":    {1, 2, 1, 2},
	})
	change := runs("7", map[string][]float64{
		"work_per_s": {80, 81, 79, 80},       // 20% slower
		"op_s_p50":   {2.1, 2.1, 2.12, 2.08}, // 5% slower, within the bound
		"setup_s":    {1, 2, 1.5, 2},         // spread far beyond the bound
	})
	rows, mismatches := compareRuns(spec, parent, change)
	want := map[string]string{"work_per_s": "regressed", "op_s_p50": "ok", "setup_s": "unresolved"}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.verdict != want[r.metric] {
			t.Errorf("%s: %s, want %s", r.metric, r.verdict, want[r.metric])
		}
	}
	if len(mismatches) != 0 {
		t.Errorf("unexpected mismatches %v", mismatches)
	}
	if printComparison(spec, parent, change, io.Discard) == 0 {
		t.Error("a regression compared clean")
	}

	_, mismatches = compareRuns(spec, parent, runs("8", map[string][]float64{}))
	if len(mismatches) == 0 {
		t.Error("a changed deterministic count was not reported")
	}
}
