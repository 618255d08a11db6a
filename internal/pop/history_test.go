package pop

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestHistorySamplingGrid: a history-driven run must record the initial
// configuration, one sample per Δ grid point, and a final sample whose
// configuration matches the engine's own Counts().
func TestHistorySamplingGrid(t *testing.T) {
	for _, bk := range []Backend{Sequential, Batched, Dense} {
		t.Run(bk.String(), func(t *testing.T) {
			const n = 2000
			e := NewEngine(n, func(i int, _ *rand.Rand) int { return i % 5 }, mixedRule,
				WithSeed(13), WithBackend(bk))
			h := NewHistory[int](0.5)
			ok, at := h.RunUntil(e, func(Engine[int]) bool { return false }, 2, 10)
			if ok {
				t.Fatal("pred never holds but RunUntil reported success")
			}
			if at < 10 {
				t.Fatalf("run stopped at time %g, want >= 10", at)
			}
			samples := h.Samples()
			if len(samples) < 20 {
				t.Fatalf("got %d samples for Δ=0.5 over >= 10 time units, want >= 20", len(samples))
			}
			if samples[0].Time != 0 || samples[0].Interactions != 0 {
				t.Fatalf("first sample at t=%g i=%d, want the initial configuration",
					samples[0].Time, samples[0].Interactions)
			}
			// Interior samples land on the Δ grid (the engine overshoots a
			// boundary by at most one interaction = 1/n time units).
			for _, s := range samples[1:] {
				nearest := math.Round(s.Time/0.5) * 0.5
				if d := s.Time - nearest; d < -historyEps || d > 2.0/float64(s.N) {
					t.Fatalf("sample at t=%g is %g past grid point %g, want < %g",
						s.Time, d, nearest, 2.0/float64(s.N))
				}
				sum := 0
				for _, c := range s.Counts {
					sum += c
				}
				if sum != s.N {
					t.Fatalf("sample at t=%g sums to %d agents, want %d", s.Time, sum, s.N)
				}
			}
			// The last sample is the engine's current configuration.
			last := samples[len(samples)-1]
			if last.Interactions != e.Interactions() {
				t.Fatalf("last sample at interaction %d, engine at %d", last.Interactions, e.Interactions())
			}
			want := e.Counts()
			if len(want) != len(last.Counts) {
				t.Fatalf("last sample has %d states, engine %d", len(last.Counts), len(want))
			}
			for s, c := range want {
				if last.Counts[s] != c {
					t.Fatalf("last sample count of %v is %d, engine says %d", s, last.Counts[s], c)
				}
			}
			// Samples are strictly ordered.
			for i := 1; i < len(samples); i++ {
				if samples[i].Interactions <= samples[i-1].Interactions {
					t.Fatalf("samples %d and %d are not strictly ordered", i-1, i)
				}
			}
		})
	}
}

// TestHistoryPredStop: convergence must still stop the run at a check
// boundary, with a final sample recorded there.
func TestHistoryPredStop(t *testing.T) {
	const n = 1000
	e := NewEngine(n, func(i int, _ *rand.Rand) int { return i % 2 }, maxRule, WithSeed(3))
	h := NewHistory[int](0.25)
	converged := func(e Engine[int]) bool {
		return e.All(func(s int) bool { return s == 1 })
	}
	ok, at := h.RunUntil(e, converged, 1, 200)
	if !ok {
		t.Fatalf("max-epidemic did not converge by time %g", at)
	}
	samples := h.Samples()
	last := samples[len(samples)-1]
	if last.Interactions != e.Interactions() {
		t.Fatalf("last sample at interaction %d, engine stopped at %d", last.Interactions, e.Interactions())
	}
	if last.Counts[1] != n {
		t.Fatalf("final sample not converged: %v", last.Counts)
	}
}

// TestHistoryChurn: samples taken across join/leave events must carry the
// population size they were measured against, with the time axis following
// the per-segment accounting.
func TestHistoryChurn(t *testing.T) {
	const n = 1000
	e := NewEngine(n, func(i int, _ *rand.Rand) int { return i % 5 }, mixedRule, WithSeed(21))
	h := NewHistory[int](0.5)
	h.Observe(e)
	e.RunTime(1)
	h.Observe(e)
	e.AddAgents(2, 500)
	e.RunTime(1)
	h.Observe(e)
	e.RemoveAgents(800)
	e.RunTime(1)
	h.Observe(e)
	samples := h.Samples()
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	wantN := []int{1000, 1000, 1500, 700}
	for i, s := range samples {
		if s.N != wantN[i] {
			t.Fatalf("sample %d has N=%d, want %d", i, s.N, wantN[i])
		}
		sum := 0
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.N {
			t.Fatalf("sample %d sums to %d, want %d", i, sum, s.N)
		}
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Time <= samples[i-1].Time {
			t.Fatalf("sample times not increasing: %g then %g", samples[i-1].Time, samples[i].Time)
		}
	}
}

func TestHistoryBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistory(0) did not panic")
		}
	}()
	NewHistory[int](0)
}

// observedEngine builds the engine the RunObserved tests drive.
func observedEngine(bk Backend) Engine[int] {
	return NewEngine(3000, func(i int, _ *rand.Rand) int { return i % 5 }, mixedRule,
		WithSeed(17), WithBackend(bk))
}

// TestRunObservedUnobservedIsRunUntil: with empty Observers, RunObserved
// is e.RunUntil — the same stop, interaction count, configuration and
// snapshot bytes.
func TestRunObservedUnobservedIsRunUntil(t *testing.T) {
	pred := func(e Engine[int]) bool { return e.Time() >= 6 }
	for _, bk := range []Backend{Sequential, Batched, Dense} {
		t.Run(bk.String(), func(t *testing.T) {
			plain, observed := observedEngine(bk), observedEngine(bk)
			okP, atP := plain.RunUntil(pred, 1.5, 20)
			okO, atO, err := RunObserved(observed, pred, 1.5, 20, Observers[int]{})
			if err != nil {
				t.Fatal(err)
			}
			if okP != okO || atP != atO {
				t.Fatalf("RunObserved stopped (%v, %g), RunUntil (%v, %g)", okO, atO, okP, atP)
			}
			if plain.Interactions() != observed.Interactions() {
				t.Fatalf("interactions %d vs %d", observed.Interactions(), plain.Interactions())
			}
			if !reflect.DeepEqual(plain.Counts(), observed.Counts()) {
				t.Fatal("configurations differ")
			}
			if !bytes.Equal(snapshotBytes(t, plain), snapshotBytes(t, observed)) {
				t.Fatal("snapshot bytes differ")
			}
		})
	}
}

// TestRunObservedSnapshotAtCheck: a SnapshotAt request is served at the
// first check boundary at or past it (checks every 2 from 0: the one at
// 6 for SnapshotAt 5), before pred runs there, and a run restored from it
// finishes byte-identical to the uninterrupted run.
func TestRunObservedSnapshotAtCheck(t *testing.T) {
	never := func(Engine[int]) bool { return false }
	for _, bk := range []Backend{Sequential, Batched, Dense} {
		t.Run(bk.String(), func(t *testing.T) {
			e := observedEngine(bk)
			var checks []int64
			pred := func(e Engine[int]) bool {
				checks = append(checks, e.Interactions())
				return false
			}
			var snaps []*Snapshot[int]
			var snapTime float64
			obs := Observers[int]{SnapshotAt: 5, Snapshot: func(s *Snapshot[int]) {
				snaps, snapTime = append(snaps, s), e.Time()
			}}
			if _, _, err := RunObserved(e, pred, 2, 12, obs); err != nil {
				t.Fatal(err)
			}
			if len(snaps) != 1 {
				t.Fatalf("got %d snapshots, want 1", len(snaps))
			}
			if snapTime < 6-historyEps || snapTime > 6+2.0/float64(e.N()) {
				t.Fatalf("snapshot at t=%g, want the check at 6", snapTime)
			}
			if len(checks) < 4 || snaps[0].Interactions != checks[3] {
				t.Fatalf("snapshot at interaction %d, checks at %v: want the fourth check (t=0,2,4,6)",
					snaps[0].Interactions, checks)
			}
			resumed, err := Restore(snaps[0], mixedRule)
			if err != nil {
				t.Fatal(err)
			}
			resumed.RunUntil(never, 2, 12-resumed.Time())
			if !bytes.Equal(snapshotBytes(t, e), snapshotBytes(t, resumed)) {
				t.Fatal("restore-then-run differs from the uninterrupted run")
			}
		})
	}
}

// TestRunObservedEndSnapshot: the snapshot is taken at the end of the run
// when SnapshotAt <= 0 or when the run converges before SnapshotAt, with
// or without a History attached.
func TestRunObservedEndSnapshot(t *testing.T) {
	converged := func(e Engine[int]) bool { return e.Time() >= 4 }
	for _, bk := range []Backend{Sequential, Batched, Dense} {
		for _, tc := range []struct {
			name    string
			at      float64
			history bool
		}{{"at-0", 0, false}, {"converges-first", 50, false}, {"at-0-history", 0, true}} {
			t.Run(bk.String()+"/"+tc.name, func(t *testing.T) {
				e := observedEngine(bk)
				var snaps []*Snapshot[int]
				obs := Observers[int]{SnapshotAt: tc.at, Snapshot: func(s *Snapshot[int]) { snaps = append(snaps, s) }}
				if tc.history {
					obs.History = NewHistory[int](0.5)
				}
				ok, _, err := RunObserved(e, converged, 1, 20, obs)
				if err != nil || !ok {
					t.Fatalf("ok=%v err=%v, want a converged run", ok, err)
				}
				if len(snaps) != 1 || snaps[0].Interactions != e.Interactions() {
					t.Fatalf("got %d snapshots, want one at the final interaction %d", len(snaps), e.Interactions())
				}
				if tc.history && len(obs.History.Samples()) < 8 {
					t.Fatalf("history has %d samples over 4 time units at Δ=0.5", len(obs.History.Samples()))
				}
			})
		}
	}
}
