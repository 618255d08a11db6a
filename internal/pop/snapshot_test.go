package pop

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// mixedRule interleaves randomized and deterministic transitions over a
// five-state space: tied pairs flip a coin (these cells can never be
// cached), others take a deterministic epidemic step (these exercise the
// transition cache — and thereby the cold-cache-neutrality argument in
// snapshot.go, since a restored engine replays them as misses).
func mixedRule(a, b int, r *rand.Rand) (int, int) {
	if a == b {
		if r.IntN(2) == 0 {
			return (a + 1) % 5, b
		}
		return a, (b + 1) % 5
	}
	m := max(a, b)
	return m, m
}

// snapOp is one step of a snapshot round-trip script, applied identically
// to the original and the restored engine.
type snapOp func(e Engine[int])

func opRun(k int64) snapOp       { return func(e Engine[int]) { e.Run(k) } }
func opJoin(st, k int) snapOp    { return func(e Engine[int]) { e.AddAgents(st, k) } }
func opLeave(k int) snapOp       { return func(e Engine[int]) { e.RemoveAgents(k) } }
func opRunTime(t float64) snapOp { return func(e Engine[int]) { e.RunTime(t) } }

// roundTrip runs pre on a fresh engine, snapshots it through a full
// marshal/unmarshal cycle, restores it with restoreOpts, then runs post on
// both the original and the restored engine and asserts their final
// snapshots are byte-identical.
func roundTrip(t *testing.T, mk func() Engine[int], rule Rule[int], pre, post []snapOp, restoreOpts ...Option) {
	t.Helper()
	e1 := mk()
	for _, op := range pre {
		op(e1)
	}
	snap, err := e1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	parsed, err := UnmarshalSnapshot[int](blob)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot: %v", err)
	}
	e2, err := Restore(parsed, rule, restoreOpts...)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if e1.N() != e2.N() || e1.Interactions() != e2.Interactions() || e1.Time() != e2.Time() {
		t.Fatalf("restored header mismatch: n %d/%d interactions %d/%d time %g/%g",
			e1.N(), e2.N(), e1.Interactions(), e2.Interactions(), e1.Time(), e2.Time())
	}
	for _, op := range post {
		op(e1)
		op(e2)
	}
	f1, err := e1.Snapshot()
	if err != nil {
		t.Fatalf("final Snapshot (uninterrupted): %v", err)
	}
	f2, err := e2.Snapshot()
	if err != nil {
		t.Fatalf("final Snapshot (restored): %v", err)
	}
	b1, _ := f1.Marshal()
	b2, _ := f2.Marshal()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("restored run diverged from uninterrupted run:\nuninterrupted: %.200s\nrestored:      %.200s", b1, b2)
	}
}

// TestSnapshotRoundTripBackends asserts byte-identical restore-then-run
// across every backend, on a rule mixing cached deterministic and
// uncacheable randomized transitions. The engines are built and restored
// under different WithParallelism values, a no-op kept for source
// compatibility that no snapshot may depend on.
func TestSnapshotRoundTripBackends(t *testing.T) {
	const n = 3000
	init := func(i int, _ *rand.Rand) int { return i % 5 }
	pre := []snapOp{opRun(4 * n), opRunTime(0.7)}
	post := []snapOp{opRun(3 * n), opRunTime(1.3), opRun(517)}
	for _, par := range []int{0, 2} {
		for _, bk := range []Backend{Sequential, Batched, Dense} {
			bk := bk
			mk := func() Engine[int] {
				return NewEngine(n, init, mixedRule,
					WithSeed(41), WithBackend(bk), WithParallelism(par))
			}
			t.Run(bk.String()+"/par="+map[int]string{0: "0", 2: "2"}[par], func(t *testing.T) {
				roundTrip(t, mk, mixedRule, pre, post, WithParallelism(3))
			})
		}
	}
}

// TestSnapshotRoundTripTracking covers the sequential engine's optional
// per-run instrumentation (seen-state set, per-agent interaction counts),
// which must survive the round trip exactly.
func TestSnapshotRoundTripTracking(t *testing.T) {
	const n = 800
	mk := func() Engine[int] {
		return New(n, func(i int, _ *rand.Rand) int { return i % 5 }, mixedRule,
			WithSeed(9), WithStateTracking(), WithInteractionCounts())
	}
	roundTrip(t, mk, mixedRule, []snapOp{opRun(2 * n)}, []snapOp{opRun(3 * n)})
}

// TestSnapshotRoundTripChurn schedules joins and leaves on both sides of
// the snapshot point, exercising the per-segment time accounting and the
// churn paths of every backend.
func TestSnapshotRoundTripChurn(t *testing.T) {
	const n = 2000
	init := func(i int, _ *rand.Rand) int { return i % 5 }
	pre := []snapOp{opRun(n), opJoin(3, 400), opRun(n), opLeave(700), opRun(n / 2)}
	post := []snapOp{opJoin(1, 250), opRun(2 * n), opLeave(300), opRunTime(0.9)}
	for _, bk := range []Backend{Sequential, Batched, Dense} {
		bk := bk
		mk := func() Engine[int] {
			return NewEngine(n, init, mixedRule, WithSeed(77), WithBackend(bk))
		}
		t.Run(bk.String(), func(t *testing.T) {
			roundTrip(t, mk, mixedRule, pre, post)
		})
	}
}

// TestSnapshotMidFallback snapshots a BatchSim while it is materialized in
// its sequential fallback (explodeRule keeps minting states past the tiny
// threshold) and asserts the restored engine resumes the fallback
// byte-identically — including the pending re-entry check countdown.
func TestSnapshotMidFallback(t *testing.T) {
	const n = 600
	mk := func() Engine[int] {
		return NewBatch(n, func(i int, _ *rand.Rand) int { return 0 }, explodeRule,
			WithSeed(5), WithBatchThreshold(16))
	}
	e := mk()
	e.Run(20 * n)
	if !e.(*BatchSim[int]).seqMode {
		t.Fatal("test setup: engine did not fall back to sequential mode")
	}
	roundTrip(t, mk, explodeRule, []snapOp{opRun(20 * n)}, []snapOp{opRun(3 * n)})
}

// TestSnapshotMidDelegation snapshots a DenseSim while it is delegated to
// slot batches, and while delegated inside their agent-array fallback, and
// asserts the restored engine resumes byte-identically — including both
// re-entry countdowns.
func TestSnapshotMidDelegation(t *testing.T) {
	const n = 600
	for _, tc := range []struct {
		name     string
		pre      int64
		fallback bool
		opts     []Option
	}{
		{"slots", 2 * n, false, []Option{WithSeed(5), WithDenseThreshold(8)}},
		{"fallback", 5 * n, true, []Option{WithSeed(5), WithDenseThreshold(8), WithBatchThreshold(16)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Engine[int] {
				return NewDense(n, func(i int, _ *rand.Rand) int { return 0 }, explodeRule, tc.opts...)
			}
			e := mk()
			e.Run(tc.pre)
			if d := e.(*DenseSim[int]); !d.Delegated() || d.seqMode != tc.fallback {
				t.Fatalf("test setup: delegated %v, fallback %v", d.Delegated(), d.seqMode)
			}
			roundTrip(t, mk, explodeRule, []snapOp{opRun(tc.pre)}, []snapOp{opRun(3 * n)})
			roundTrip(t, mk, explodeRule, []snapOp{opRun(tc.pre)}, []snapOp{opRun(40 * n)})
		})
	}
}

// TestSnapshotFile round-trips a snapshot through the file helpers.
func TestSnapshotFile(t *testing.T) {
	s := NewBatch(500, func(i int, _ *rand.Rand) int { return i % 3 }, amRule, WithSeed(3))
	s.Run(1000)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/snap.json"
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile[int](path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := snap.Marshal()
	b2, _ := got.Marshal()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("file round trip changed the snapshot:\nwrote: %s\nread:  %s", b1, b2)
	}
}

// TestSnapshotValidation spot-checks the malformed-snapshot rejections,
// through both UnmarshalSnapshot and Restore. The negative-budget and
// count-overflow cases were accepted once: a negative re-entry countdown
// made Run(100) execute thousands of interactions, and counts wrapping
// int64 summed to a plausible n.
func TestSnapshotValidation(t *testing.T) {
	snapOf := func(e Engine[int], k int64) *Snapshot[int] {
		t.Helper()
		e.Run(k)
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	batch := snapOf(NewBatch(500, func(i int, _ *rand.Rand) int { return i % 3 }, amRule, WithSeed(3)), 1000)
	fallback := snapOf(NewBatch(600, func(int, *rand.Rand) int { return 0 }, explodeRule,
		WithSeed(5), WithBatchThreshold(16)), 20*600)
	delegated := snapOf(NewDense(600, func(int, *rand.Rand) int { return 0 }, explodeRule,
		WithSeed(5), WithDenseThreshold(8), WithBatchThreshold(16)), 5*600)
	if !fallback.SeqMode || !delegated.Delegated || !delegated.SeqMode {
		t.Fatal("test setup: engines did not reach fallback and delegation")
	}
	dense := snapOf(NewDense(500, func(i int, _ *rand.Rand) int { return i % 3 }, amRule, WithSeed(3)), 1000)
	cases := []struct {
		name   string
		base   *Snapshot[int]
		mutate func(*Snapshot[int])
		want   string
	}{
		{"version", batch, func(s *Snapshot[int]) { s.Version = 99 }, "version"},
		{"version-1", delegated, func(s *Snapshot[int]) { s.Version = 1 }, "version 1 is not supported"},
		{"version-2", batch, func(s *Snapshot[int]) { s.Version = 2 }, "version 2 is not supported"},
		{"backend", batch, func(s *Snapshot[int]) { s.Backend = "quantum" }, "unknown"},
		{"counts-total", batch, func(s *Snapshot[int]) { s.Counts[0]++ }, "total"},
		{"no-rng", batch, func(s *Snapshot[int]) { s.RNG = nil }, "rng"},
		{"dup-state", batch, func(s *Snapshot[int]) { s.States[1] = s.States[0] }, "repeats"},
		{"negative-interactions", batch, func(s *Snapshot[int]) { s.Interactions = -1 }, "negative"},
		{"negative-seg-start", batch, func(s *Snapshot[int]) { s.SegStart = -1 }, "negative"},
		{"negative-time-base", batch, func(s *Snapshot[int]) { s.TimeBase = -0.5 }, "negative"},
		{"negative-seq-recheck", fallback, func(s *Snapshot[int]) { s.SeqRecheck = -5000 }, "negative"},
		{"negative-delegate-recheck", delegated, func(s *Snapshot[int]) { s.DelegateRecheck = -7000 }, "negative"},
		{"no-cutoff", dense, func(s *Snapshot[int]) { s.Cutoff = 0 }, "cutoff"},
		{"fallback-undelegated", delegated, func(s *Snapshot[int]) { s.Delegated = false }, "without being delegated"},
		{"counts-overflow", batch, func(s *Snapshot[int]) {
			s.N = 2
			s.States = []int{-1, 0, 1}
			s.Counts = []int64{math.MaxInt64, math.MaxInt64, 4}
		}, "total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := *tc.base
			cp.States = append([]int(nil), tc.base.States...)
			cp.Counts = append([]int64(nil), tc.base.Counts...)
			tc.mutate(&cp)
			if _, err := Restore(&cp, amRule); err == nil {
				t.Fatal("Restore accepted a corrupted snapshot")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			blob, err := cp.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalSnapshot[int](blob); err == nil {
				t.Fatal("UnmarshalSnapshot accepted a corrupted snapshot")
			}
		})
	}
}
