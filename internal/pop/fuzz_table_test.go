// Fuzz target for the transition-table DSL: arbitrary byte strings
// decode into small tables — deterministic and randomized entries mixed —
// which are compiled and then run through every backend. Each input
// asserts the structural invariants the table bypass must never violate:
// agent-count conservation, byte-identical trajectories with and without
// WithTable, zero rule calls for
// declared-deterministic tables, and seq×batch×dense statistical
// equivalence of the resulting configurations. Like the other fuzz
// targets, the seed corpus doubles as a unit test under plain `go test`;
// CI runs the target with -fuzztime=15s.
package pop

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"github.com/popsim/popsize/internal/stats"
)

// fuzzTable decodes raw into a transition table over the states
// 0..q-1 (q in 2..5): each 4-byte chunk [a b c d] declares the pair
// (a%q, b%q); chunks with d≡0 (mod 4) become a two-branch weighted coin,
// the rest a deterministic entry (c%q, d%q). The decoder only emits
// tables CompileRule accepts, so a compile error is a finding.
func fuzzTable(raw []byte) (Table[int], int) {
	q := 2 + int(raw[0])%4
	tbl := Table[int]{}
	for i := 1; i+3 < len(raw) && len(tbl) < 24; i += 4 {
		a, b, c, d := raw[i], raw[i+1], raw[i+2], raw[i+3]
		p := Pair[int]{Rec: int(a) % q, Sen: int(b) % q}
		if d%4 == 0 {
			tbl[p] = Choose(
				Branch[int]{W: 1 + int64(c%3), Rec: int(c) % q, Sen: int(d) % q},
				Branch[int]{W: 1 + int64(d%5), Rec: int(c+1) % q, Sen: int(d+1) % q},
			)
		} else {
			tbl[p] = To(int(c)%q, int(d)%q)
		}
	}
	if len(tbl) == 0 {
		tbl[Pair[int]{Rec: 0, Sen: 1}] = To(1, 1)
	}
	return tbl, q
}

func FuzzRandomTable(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x01, 0x02, 0x03, 0x04})
	f.Add(uint64(2), []byte{0x03, 0xff, 0x00, 0x02, 0x04, 0x10, 0x11, 0x12, 0x13})
	f.Add(uint64(3), []byte{0x02, 0x01, 0x01, 0x01, 0x01})
	f.Add(uint64(4), []byte{0x01, 0x00, 0x01, 0x02, 0x07, 0x01, 0x02, 0x00, 0x04})
	f.Add(uint64(5), bytes.Repeat([]byte{0x05, 0x09, 0x21, 0x08}, 8))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		if len(raw) == 0 {
			t.Skip()
		}
		tbl, q := fuzzTable(raw)
		c, err := CompileRule(tbl)
		if err != nil {
			t.Fatalf("decoder emitted a table CompileRule rejects: %v\n%v", err, tbl)
		}
		rule := c.Rule()
		const n = 256
		// Seed the population from the declared state set: outputs of
		// declared cells are themselves declared, so every reachable
		// state stays inside the table and the bypass invariant below
		// (deterministic table ⇒ zero rule calls) is exact.
		declared := c.States()
		init := func(i int, _ *rand.Rand) int { return declared[i%len(declared)] }

		// Byte-identity with/without the table, on both multiset
		// backends — plus conservation and, for declared-deterministic
		// tables, a rule-call-free bypass.
		type mk func(opts ...Option) Engine[int]
		for name, build := range map[string]mk{
			"batch": func(opts ...Option) Engine[int] { return NewBatch(n, init, rule, opts...) },
			"dense": func(opts ...Option) Engine[int] { return NewDense(n, init, rule, opts...) },
		} {
			plain := build(WithSeed(seed))
			plain.RunTime(3)
			tabled := build(WithSeed(seed), c.Option())
			tabled.RunTime(3)
			if plain.N() != n || tabled.N() != n {
				t.Fatalf("%s: population not conserved: %d / %d, want %d", name, plain.N(), tabled.N(), n)
			}
			for _, e := range []Engine[int]{plain, tabled} {
				total := 0
				for _, cnt := range e.Counts() {
					total += cnt
				}
				if total != n {
					t.Fatalf("%s: counts sum to %d, want %d", name, total, n)
				}
			}
			pb := snapshotBytes(t, plain)
			tb := snapshotBytes(t, tabled)
			if !bytes.Equal(pb, tb) {
				t.Fatalf("%s: WithTable changed the trajectory\ntable: %v\nplain:  %.300s\ntabled: %.300s",
					name, tbl, pb, tb)
			}
			if c.Deterministic() {
				if calls := tabled.Stats().RuleCalls; calls != 0 {
					t.Fatalf("%s: declared-deterministic table made %d rule calls", name, calls)
				}
			}
		}

		// Statistical equivalence across backends: the mean final count
		// of each state must agree (Welch tolerance) between the
		// sequential reference and both multiset engines.
		const trials = 24
		metric := func(build func(trial uint64) Engine[int]) [][]float64 {
			out := make([][]float64, q)
			for s := range out {
				out[s] = make([]float64, trials)
			}
			for tr := uint64(0); tr < trials; tr++ {
				e := build(tr)
				e.RunTime(2)
				counts := e.Counts()
				for s := 0; s < q; s++ {
					out[s][tr] = float64(counts[s])
				}
			}
			return out
		}
		ref := metric(func(tr uint64) Engine[int] { return New(n, init, rule, WithSeed(seed+1000*tr+1)) })
		for name, build := range map[string]func(tr uint64) Engine[int]{
			"batch": func(tr uint64) Engine[int] {
				return NewBatch(n, init, rule, WithSeed(seed+1000*tr+2), c.Option())
			},
			"dense": func(tr uint64) Engine[int] {
				return NewDense(n, init, rule, WithSeed(seed+1000*tr+3), c.Option())
			},
		} {
			got := metric(build)
			for s := 0; s < q; s++ {
				if err := stats.WelchAgree(ref[s], got[s], 6, 0.06*n); err != nil {
					t.Fatalf("%s: state %d count distribution diverged from sequential: %v\ntable: %v",
						name, s, err, tbl)
				}
			}
		}
	})
}
