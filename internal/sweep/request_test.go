package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSpecRequestRoundTrip checks the JSON round trip the flag surface and
// the daemon share: encode → decode reproduces the request exactly, and
// decoding applies the documented defaults.
func TestSpecRequestRoundTrip(t *testing.T) {
	req := SpecRequest{
		Experiments: []string{"F2", "E17/majority/m=0.2"},
		Ns:          []int{100, 1000},
		Trials:      7,
		Quick:       true,
		Backend:     "dense",
		Workers:     3,
		Seed:        42,
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpecRequest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", req) {
		t.Fatalf("round trip changed the request:\n%+v\nvs\n%+v", got, req)
	}

	// Defaults: an empty body is a valid whole-suite submission with
	// backend auto and seed 1 — the flag defaults exactly.
	got, err = DecodeSpecRequest(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != "auto" || got.Seed != 1 {
		t.Fatalf("decoded defaults %+v, want backend auto and seed 1", got)
	}
}

// TestSpecRequestValidate exercises every rejection the request can make
// without a resolver.
func TestSpecRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"unknown field", `{"trails": 3}`, "unknown field"},
		{"two documents", `{} {}`, "more than one JSON document"},
		{"bad backend", `{"backend":"gpu"}`, "backend"},
		{"negative trials", `{"trials":-1}`, "trials >= 0"},
		{"negative workers", `{"workers":-2}`, "workers >= 0"},
		{"negative par", `{"par":-1}`, "par >= 0"},
		{"tiny n", `{"ns":[1]}`, "at least 2 agents"},
		{"duplicate n", `{"ns":[4,4]}`, "repeats"},
		{"seq above cap", `{"backend":"seq","ns":[1000,1000000000000]}`, "agent-array cap of 67108864"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpecRequest(strings.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeSpecRequest(%s) = %v, want error mentioning %q", tc.body, err, tc.want)
			}
		})
	}
}

// TestSpecRequestSeqCap: the seq backend takes sizes up to MaxSeqN and
// refuses anything above it, naming the cap; the other backends are not
// capped.
func TestSpecRequestSeqCap(t *testing.T) {
	for _, tc := range []struct {
		backend string
		n       int
		ok      bool
	}{
		{"seq", MaxSeqN, true},
		{"seq", MaxSeqN + 1, false},
		{"auto", 1_000_000_000_000, true},
		{"batch", 1_000_000_000_000, true},
		{"dense", 1_000_000_000_000, true},
	} {
		req := SpecRequest{Backend: tc.backend, Ns: []int{tc.n}}
		err := req.Validate()
		if tc.ok != (err == nil) {
			t.Errorf("%s at n=%d: Validate() = %v, want ok=%v", tc.backend, tc.n, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(MaxSeqN)) {
			t.Errorf("%s at n=%d: error %q does not name the cap", tc.backend, tc.n, err)
		}
	}
}

// TestSpecRequestUnitsCap: a request's trials and its points' summed
// trials are capped at MaxUnits, and both refusals name the cap.
func TestSpecRequestUnitsCap(t *testing.T) {
	if err := (&SpecRequest{Trials: MaxUnits}).Validate(); err != nil {
		t.Errorf("trials at the cap: %v", err)
	}
	err := (&SpecRequest{Trials: MaxUnits + 1}).Validate()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxUnits)) {
		t.Errorf("trials above the cap: Validate() = %v, want an error naming %d", err, MaxUnits)
	}
	points := []Point{{Experiment: "a", N: 2, Trials: MaxUnits - 1}, {Experiment: "b", N: 2, Trials: 1}}
	if err := CheckUnits(points); err != nil {
		t.Errorf("points summing to the cap: %v", err)
	}
	points[1].Trials = 2
	if err := CheckUnits(points); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxUnits)) {
		t.Errorf("points summing above the cap: CheckUnits() = %v, want an error naming %d", err, MaxUnits)
	}
}

// TestKeyIDRoundTrip checks the wire id codec, including experiment labels
// carrying the separator character.
func TestKeyIDRoundTrip(t *testing.T) {
	keys := []Key{
		{Experiment: "F2", N: 100, Trial: 0},
		{Experiment: "E17/majority/m=0.2", N: 1000000, Trial: 17},
		{Experiment: "weird|label", N: 2, Trial: 3},
	}
	for _, k := range keys {
		got, err := ParseKeyID(k.ID())
		if err != nil {
			t.Fatalf("ParseKeyID(%q): %v", k.ID(), err)
		}
		if got != k {
			t.Fatalf("ParseKeyID(%q) = %+v, want %+v", k.ID(), got, k)
		}
	}
	for _, bad := range []string{"", "noseparators", "a|b|c", "a|1|x", "a|1"} {
		if _, err := ParseKeyID(bad); err == nil {
			t.Fatalf("ParseKeyID(%q) accepted a malformed id", bad)
		}
	}
}

// gateSpec builds a small spec used by the cancellation tests, so
// cancellation tests can control exactly how far the sweep gets.
func gateSpec(trials int, run TrialFunc) Spec {
	return Spec{
		Points:   []Point{{Experiment: "T", N: 4, Trials: trials, Run: run}},
		BaseSeed: 1,
		Workers:  2,
	}
}

// TestRunContextCancel checks the cancellation contract: canceling mid-run
// stops new units promptly, returns ctx's error with the partial results,
// and leaves the output a loadable checkpoint that a second RunContext
// completes.
func TestRunContextCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	res, err := RunContext(ctx, gateSpec(50, func(trial int, seed uint64) Values {
		if started.Add(1) >= 4 {
			cancel()
		}
		time.Sleep(2 * time.Millisecond)
		return Values{"x": float64(trial)}
	}), Options{Out: out})
	out.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if res.Len() == 0 || res.Len() >= 50 {
		t.Fatalf("canceled run recorded %d units, want a strict partial", res.Len())
	}

	done, lerr := LoadCheckpoint(path)
	if lerr != nil {
		t.Fatalf("checkpoint after cancel not loadable: %v", lerr)
	}
	if len(done) != res.Len() {
		t.Fatalf("checkpoint holds %d records, results hold %d", len(done), res.Len())
	}
	out, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunContext(context.Background(), gateSpec(50, func(trial int, seed uint64) Values {
		return Values{"x": float64(trial)}
	}), Options{Out: out, Done: done})
	out.Close()
	if err != nil || res2.Len() != 50 {
		t.Fatalf("resume after cancel: %d records, err %v", res2.Len(), err)
	}
}

// failingWriter accepts a few writes, then fails forever.
type failingWriter struct {
	n atomic.Int32
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n.Add(1) > 2 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestRunWriteFailureAborts checks that a failed checkpoint write cancels
// the remaining queue instead of burning compute on unpersistable trials.
func TestRunWriteFailureAborts(t *testing.T) {
	var ran atomic.Int32
	_, err := Run(gateSpec(200, func(trial int, seed uint64) Values {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return Values{"x": 1}
	}), Options{Out: &failingWriter{}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write failure surfaced as %v", err)
	}
	if n := ran.Load(); n >= 200 {
		t.Fatalf("all %d units ran despite the dead writer — the queue was not canceled", n)
	}
}

// TestAcquireGatesUnits checks the Options.Acquire hook: every executed
// unit holds a slot between acquire and release, and an acquire error
// stops the worker.
func TestAcquireGatesUnits(t *testing.T) {
	var held, maxHeld, acquires atomic.Int32
	res, err := Run(gateSpec(20, func(trial int, seed uint64) Values {
		if h := held.Load(); h > maxHeld.Load() {
			maxHeld.Store(h)
		}
		return Values{"x": 1}
	}), Options{
		Acquire: func(ctx context.Context) (func(), error) {
			acquires.Add(1)
			held.Add(1)
			return func() { held.Add(-1) }, nil
		},
	})
	if err != nil || res.Len() != 20 {
		t.Fatalf("gated run: %d records, err %v", res.Len(), err)
	}
	if acquires.Load() != 20 {
		t.Fatalf("%d acquires for 20 units", acquires.Load())
	}
	if held.Load() != 0 {
		t.Fatalf("%d slots still held after the run", held.Load())
	}
}
