// CLI-level tests for cmd/fig2: -ns grid parsing, flag errors, and a
// smoke-sized end-to-end sweep with table and CSV output.
package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseNs(t *testing.T) {
	good := map[string][]int{
		"100,1000":    {100, 1000},
		" 64 , 128 ":  {64, 128},
		"2":           {2},
		"500,100,300": {500, 100, 300}, // order preserved
		"100,100,200": {100, 200},      // duplicates dropped: repeated sizes would double-run trials
	}
	for in, want := range good {
		got, err := parseNs(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseNs(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", ",", "abc", "100,x", "1", "0", "-5"} {
		if got, err := parseNs(bad); err == nil {
			t.Errorf("parseNs(%q) = %v, want error", bad, got)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-ns", "abc"}, io.Discard); err == nil || !strings.Contains(err.Error(), "bad -ns entry") {
		t.Errorf("bad -ns: err = %v", err)
	}
	if err := run([]string{"-backend", "quantum"}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("bad -backend: err = %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-not-a-flag"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-ns", "64,128", "-trials", "1", "-seed", "3", "-out", dir}, &buf)
	if err != nil {
		t.Fatalf("smoke run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"| n |", "Figure 2", "fig2.csv"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatalf("fig2.csv not written: %v", err)
	}
	if !strings.Contains(string(csv), "64") || !strings.Contains(string(csv), "128") {
		t.Errorf("fig2.csv lacks the -ns sizes:\n%s", csv)
	}
}

// TestRunRestoreRule: a -restore snapshot is one run, so fig2 resumes it
// only under -trials 1 and a single -ns equal to the snapshot's n (any
// other grid would label the same continuation as other sizes/trials),
// and the error names that n.
func TestRunRestoreRule(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-ns", "300", "-trials", "1", "-seed", "3", "-out", "",
		"-snapshot", filepath.Join(dir, "mid.json"), "-snapshot-at", "20"}, &buf); err != nil {
		t.Fatalf("snapshot run failed: %v\n%s", err, buf.String())
	}
	mid := filepath.Join(dir, "mid.F2-n300-t0.json")
	for _, args := range [][]string{
		{"-ns", "100,1000", "-trials", "2"},
		{"-ns", "300", "-trials", "2"},
		{"-ns", "100", "-trials", "1"},
		{"-ns", "300,1000", "-trials", "1"},
	} {
		err := run(append(args, "-out", "", "-restore", mid), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "n=300") || !strings.Contains(err.Error(), "-trials 1") {
			t.Errorf("%v: err = %v, want a -restore error naming n=300", args, err)
		}
	}
	buf.Reset()
	if err := run([]string{"-ns", "300", "-trials", "1", "-out", "", "-restore", mid}, &buf); err != nil {
		t.Fatalf("restore run failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "| 300 |") {
		t.Errorf("restored run lacks the n=300 row:\n%s", buf.String())
	}
}
