package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), which is how the spread of a set of runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdictRow is one line of a comparison.
type verdictRow struct {
	workload, metric, verdict string
	parent, change            float64 // medians
	worse                     float64 // share of the parent median by which change is worse
	parentSpread, spread      float64
}

// compareRuns judges every (workload, end-to-end metric) pair present in
// both sets of timed runs: regressed when the change's median is worse
// than the parent's by more than the metric's bound, unresolved when
// either side's run-to-run spread exceeds the bound (unless every change
// run beats every parent run), ok otherwise. It also returns the
// deterministic-count mismatches: runs of one workload and seed, traced
// or not, in either set, must agree on every count.
func compareRuns(spec benchSpec, parent, change []runRecord) (rows []verdictRow, mismatches []string) {
	timed := func(rs []runRecord, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.Result.Metrics[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := timed(parent, w.Name, m.Name), timed(change, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			row := verdictRow{workload: w.Name, metric: m.Name, parent: median(a), change: median(b),
				parentSpread: spread(a), spread: spread(b)}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			row.worse = sign * ratio(row.change-row.parent, row.parent)
			allBetter := true
			for _, x := range a {
				for _, y := range b {
					if sign*(y-x) >= 0 {
						allBetter = false
					}
				}
			}
			switch {
			case (row.parentSpread > m.Bound || row.spread > m.Bound) && !allBetter:
				row.verdict = "unresolved"
			case row.worse > m.Bound:
				row.verdict = "regressed"
			default:
				row.verdict = "ok"
			}
			rows = append(rows, row)
		}
	}

	type key struct {
		workload string
		seed     uint64
	}
	seen := map[key]runRecord{}
	for _, r := range append(append([]runRecord(nil), parent...), change...) {
		k := key{r.Workload, r.Seed}
		first, ok := seen[k]
		if !ok {
			seen[k] = r
			continue
		}
		for name, v := range first.Det {
			if r.Det[name] != v {
				mismatches = append(mismatches, fmt.Sprintf("%s seed %d: %s is %s in one run and %s in another", r.Workload, r.Seed, name, v, r.Det[name]))
			}
		}
		for name := range r.Det {
			if _, ok := first.Det[name]; !ok {
				mismatches = append(mismatches, fmt.Sprintf("%s seed %d: %s is missing from one run", r.Workload, r.Seed, name))
			}
		}
	}
	sort.Strings(mismatches)
	return rows, mismatches
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []runRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
	return rs, sc.Err()
}

// runCompare prints the comparison of two --out files and fails when a
// metric regressed, a run failed its checks or a count did not repeat.
func runCompare(spec benchSpec, parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRuns(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := readRuns(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return printComparison(spec, parent, change, stdout)
}

func printComparison(spec benchSpec, parent, change []runRecord, stdout io.Writer) int {
	rows, mismatches := compareRuns(spec, parent, change)
	status := 0
	fmt.Fprintf(stdout, "%-20s %-18s %-10s %12s %12s %8s %8s %8s\n", "workload", "metric", "verdict", "parent", "change", "worse", "spreadP", "spreadC")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-20s %-18s %-10s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%%\n",
			r.workload, r.metric, r.verdict, r.parent, r.change, 100*r.worse, 100*r.parentSpread, 100*r.spread)
		if r.verdict == "regressed" {
			status = 1
		}
	}
	for _, rs := range [][]runRecord{parent, change} {
		for _, r := range rs {
			if !r.Result.Correct || r.Result.Failed > 0 {
				fmt.Fprintf(stdout, "failed: %s seed %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
				status = 1
			}
		}
	}
	for _, m := range mismatches {
		fmt.Fprintln(stdout, "count mismatch:", m)
		status = 1
	}
	if len(mismatches) == 0 {
		fmt.Fprintln(stdout, "deterministic counts: every workload and seed repeated exactly")
	}
	return status
}
