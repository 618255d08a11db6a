// CLI-level tests for cmd/popsim: flag parsing, backend/parallelism
// selection, and tiny-n end-to-end smoke runs — run() is parameterized on
// (args, stdout) precisely so these can execute in-process.
package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/popsim/popsize/internal/sweep"
)

func TestRunRejectsUnknownProtocol(t *testing.T) {
	err := run([]string{"-protocol", "nope", "-n", "64", "-trials", "1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("err = %v, want unknown-protocol error", err)
	}
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	err := run([]string{"-backend", "quantum", "-n", "64", "-trials", "1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("err = %v, want unknown-backend error", err)
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(buf.String(), "Usage") && !strings.Contains(buf.String(), "-protocol") {
		t.Errorf("usage not printed to the provided writer:\n%s", buf.String())
	}
}

func TestRunRejectsResumeWithoutJSONL(t *testing.T) {
	err := run([]string{"-protocol", "weak", "-n", "64", "-trials", "1", "-resume"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-resume requires -jsonl") {
		t.Fatalf("err = %v, want resume-requires-jsonl error", err)
	}
}

func TestRunMainProtocolSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "main", "-n", "300", "-trials", "2", "-seed", "7"}, &buf); err != nil {
		t.Fatalf("smoke run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "protocol=main n=300") {
		t.Errorf("header missing:\n%s", out)
	}
	for _, want := range []string{"trial 0: converged=", "trial 1: converged=", "estimate="} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunWeakProtocolBackendsAndJSONL(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "weak.jsonl")
	var buf bytes.Buffer
	args := []string{"-protocol", "weak", "-n", "5000", "-trials", "1", "-seed", "3",
		"-backend", "batch", "-jsonl", jsonl}
	if err := run(args, &buf); err != nil {
		t.Fatalf("weak smoke run failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "trial 0: k=") {
		t.Errorf("weak output lacks trial line:\n%s", buf.String())
	}
	// The JSONL stream doubles as a checkpoint: -resume replays it.
	var buf2 bytes.Buffer
	if err := run(append(args, "-resume"), &buf2); err != nil {
		t.Fatalf("resume replay failed: %v\n%s", err, buf2.String())
	}
	if buf.String() != buf2.String() {
		t.Errorf("resumed output differs:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

// TestRunPaperVariantsHonorBackend: the paper variants run on every
// backend, and -backend changes the engine they run on. The multiset
// engines consume the seed differently from the agent array, so at a
// fixed seed the batch and dense trial lines of synthcoin and leaderterm
// differ from the seq line. (upperbound's printed bound is set by kex at
// this size, equal on every backend, so it only has to run.)
func TestRunPaperVariantsHonorBackend(t *testing.T) {
	for _, proto := range []string{"synthcoin", "upperbound", "leaderterm"} {
		lines := map[string]string{}
		for _, be := range []string{"seq", "batch", "dense"} {
			var buf bytes.Buffer
			err := run([]string{"-protocol", proto, "-n", "300", "-trials", "1", "-seed", "7",
				"-backend", be}, &buf)
			if err != nil {
				t.Fatalf("%s -backend %s failed: %v\n%s", proto, be, err, buf.String())
			}
			_, line, ok := strings.Cut(buf.String(), "trial 0: ")
			if !ok {
				t.Fatalf("%s -backend %s printed no trial line:\n%s", proto, be, buf.String())
			}
			lines[be] = line
		}
		if proto == "upperbound" {
			continue
		}
		for _, be := range []string{"batch", "dense"} {
			if lines[be] == lines["seq"] {
				t.Errorf("%s: -backend %s printed the seq trial line %q; the backend was ignored",
					proto, be, lines["seq"])
			}
		}
	}
}

// TestRunTrajectoryFlagValidation: the single-run instrumentation flags
// are rejected for protocols that would ignore them (the error names the
// trajectory-capable set), and -restore pins -trials 1.
func TestRunTrajectoryFlagValidation(t *testing.T) {
	err := run([]string{"-protocol", "weak", "-n", "64", "-trials", "1",
		"-history", filepath.Join(t.TempDir(), "h.jsonl")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "trajectory-capable") ||
		!strings.Contains(err.Error(), "main") {
		t.Fatalf("err = %v, want trajectory-capable-protocols error listing the capable set", err)
	}
	err = run([]string{"-protocol", "main", "-n", "64", "-trials", "2",
		"-restore", "nope.json"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-trials 1") {
		t.Fatalf("err = %v, want trials-1 error", err)
	}
	err = run([]string{"-protocol", "main", "-n", "64", "-trials", "1",
		"-restore", filepath.Join(t.TempDir(), "missing.json")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-restore") {
		t.Fatalf("err = %v, want restore-read error", err)
	}
	err = run([]string{"-protocol", "main", "-n", "64", "-trials", "1",
		"-history", filepath.Join(t.TempDir(), "h.jsonl"), "-history-dt", "-1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-history-dt") {
		t.Fatalf("err = %v, want history-dt error", err)
	}
}

// TestRunHistoryAndSnapshotRestore is the CLI-level acceptance check,
// for the main pipeline and a table-compiled zoo protocol: a -history run
// emits valid JSONL on the requested Δ grid whose every configuration
// covers the whole population, and a run restored from a mid-run
// -snapshot finishes byte-identical to the uninterrupted run.
func TestRunHistoryAndSnapshotRestore(t *testing.T) {
	for _, tc := range []struct{ protocol, snapshotAt string }{
		{"main", "20"}, {"approxmajority", "4"},
	} {
		t.Run(tc.protocol, func(t *testing.T) {
			testHistoryAndSnapshotRestore(t, tc.protocol, tc.snapshotAt)
		})
	}
}

func testHistoryAndSnapshotRestore(t *testing.T, name, snapshotAt string) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "hist.jsonl")
	mid := filepath.Join(dir, "mid.json")
	finalA := filepath.Join(dir, "final_a.json")
	finalB := filepath.Join(dir, "final_b.json")
	const n = 400
	base := []string{"-protocol", name, "-n", "400", "-trials", "1", "-seed", "7", "-backend", "batch"}

	// Uninterrupted run, snapshot at the end.
	var bufA bytes.Buffer
	if err := run(append(base, "-snapshot", finalA), &bufA); err != nil {
		t.Fatalf("full run failed: %v\n%s", err, bufA.String())
	}
	// Same run with a history stream and a mid-run snapshot. The history
	// changes the run's chunking (statistically identical, not
	// byte-identical), so the restore comparison uses its own mid snapshot
	// from a history-free run below.
	var bufH bytes.Buffer
	if err := run(append(base, "-history", hist, "-history-dt", "2.5"), &bufH); err != nil {
		t.Fatalf("history run failed: %v\n%s", err, bufH.String())
	}
	if !strings.Contains(bufH.String(), "Trajectory (") {
		t.Errorf("single-trial history run did not render the trajectory table:\n%s", bufH.String())
	}
	fh, err := os.Open(hist)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sweep.ReadHistory(fh)
	fh.Close()
	if err != nil {
		t.Fatalf("history stream unreadable: %v", err)
	}
	if len(recs) < 3 {
		t.Fatalf("history has %d records, want several", len(recs))
	}
	if recs[0].Time != 0 || recs[0].Interactions != 0 {
		t.Errorf("first history sample %+v not at the run start", recs[0])
	}
	for i, r := range recs {
		total := 0.0
		for _, c := range r.Config {
			total += c
		}
		if total != float64(n) {
			t.Fatalf("history record %d: configuration sums to %v, want %d", i, total, n)
		}
		// Interior samples sit on the Δ grid (the engine overshoots by at
		// most a couple of interactions = 2/n time units).
		if i > 0 && i < len(recs)-1 {
			d := r.Time - float64(i)*2.5
			if d < 0 || d > 2.0/float64(n)+1e-9 {
				t.Fatalf("history record %d at t=%v, want on the Δ=2.5 grid", i, r.Time)
			}
		}
	}

	// Mid-run snapshot from a history-free run, then restore and finish.
	var bufM bytes.Buffer
	if err := run(append(base, "-snapshot", mid, "-snapshot-at", snapshotAt), &bufM); err != nil {
		t.Fatalf("mid-snapshot run failed: %v\n%s", err, bufM.String())
	}
	var bufR bytes.Buffer
	if err := run([]string{"-protocol", name, "-trials", "1",
		"-restore", mid, "-snapshot", finalB}, &bufR); err != nil {
		t.Fatalf("restored run failed: %v\n%s", err, bufR.String())
	}
	if !strings.Contains(bufR.String(), "restoring from") {
		t.Errorf("restored run did not announce the snapshot:\n%s", bufR.String())
	}
	a, err := os.ReadFile(finalA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(finalB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("restore-then-run final snapshot differs from the uninterrupted run's")
	}
	if m, err := os.ReadFile(mid); err != nil || bytes.Equal(m, a) {
		t.Errorf("the -snapshot-at %s snapshot is not mid-run (err %v)", snapshotAt, err)
	}
}
