// Tests for the declarative transition-table DSL: compile errors,
// metadata (canonical state order, deterministic/randomized
// classification, branch merging), rule semantics against the handwritten
// reference, randomized branch distributions, the declared-table bypass
// accounting, and the byte-identity guarantee — a table-compiled rule run
// with WithTable must produce the identical trajectory, snapshot bytes
// and restored continuation as the same rule without it, on every
// multiset backend.
package pop

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// amTable is the 3-state approximate-majority protocol of batch_test.go's
// amRule, written as a table: blank receivers adopt the sender's opinion,
// opposed receivers blank out.
func amTable() Table[int] {
	return Table[int]{
		{Rec: 1, Sen: -1}: To(0, -1),
		{Rec: -1, Sen: 1}: To(0, 1),
		{Rec: 0, Sen: 1}:  To(1, 1),
		{Rec: 0, Sen: -1}: To(-1, -1),
	}
}

// coinTable mixes deterministic entries with a 3:1 randomized branch, so
// with-table runs exercise both the bypass and the rule path.
func coinTable() Table[int] {
	return Table[int]{
		{Rec: 0, Sen: 1}: Choose(
			Branch[int]{W: 3, Rec: 1, Sen: 1},
			Branch[int]{W: 1, Rec: 0, Sen: 0},
		),
		{Rec: 1, Sen: 2}: To(2, 2),
		{Rec: 2, Sen: 0}: To(0, 0),
	}
}

func TestCompileRuleErrors(t *testing.T) {
	if _, err := CompileRule(Table[int]{}); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty table: err = %v, want empty-table error", err)
	}
	if _, err := CompileRule(Table[int]{{Rec: 0, Sen: 1}: Choose[int]()}); err == nil || !strings.Contains(err.Error(), "no outputs") {
		t.Errorf("empty outcome: err = %v, want no-outputs error", err)
	}
	for _, w := range []int64{0, -3} {
		tbl := Table[int]{{Rec: 0, Sen: 1}: Choose(Branch[int]{W: w, Rec: 1, Sen: 1})}
		if _, err := CompileRule(tbl); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("weight %d: err = %v, want weight error", w, err)
		}
	}
}

// TestCompiledBranches: the read-only entry accessor speaks table ids,
// merges duplicate Choose outputs with weights summing to the entry
// total, and returns a null pair as one identity branch of weight 1.
func TestCompiledBranches(t *testing.T) {
	c := MustCompile(Table[string]{ // canonical ids: a=0, b=1, c=2
		{Rec: "a", Sen: "b"}: Choose(
			Branch[string]{W: 2, Rec: "b", Sen: "b"},
			Branch[string]{W: 1, Rec: "c", Sen: "c"},
			Branch[string]{W: 3, Rec: "b", Sen: "b"},
		),
		{Rec: "b", Sen: "c"}: To("c", "a"),
		{Rec: "c", Sen: "c"}: Choose(
			Branch[string]{W: 1, Rec: "a", Sen: "a"},
			Branch[string]{W: 4, Rec: "a", Sen: "a"},
		),
	})
	for _, tc := range []struct {
		name string
		a, b int
		want []Branch[int]
	}{
		{"randomized, merged", 0, 1, []Branch[int]{{W: 5, Rec: 1, Sen: 1}, {W: 1, Rec: 2, Sen: 2}}},
		{"deterministic", 1, 2, []Branch[int]{{W: 1, Rec: 2, Sen: 0}}},
		{"merged to one output", 2, 2, []Branch[int]{{W: 1, Rec: 0, Sen: 0}}},
		{"null pair", 0, 0, []Branch[int]{{W: 1, Rec: 0, Sen: 0}}},
		{"null reversed pair", 1, 0, []Branch[int]{{W: 1, Rec: 1, Sen: 0}}},
	} {
		if got := c.Branches(tc.a, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Branches(%d, %d) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompileMetadata(t *testing.T) {
	am := MustCompile(amTable())
	if got, want := am.States(), []int{-1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("am States() = %v, want %v", got, want)
	}
	if am.NumStates() != 3 {
		t.Errorf("am NumStates() = %d, want 3", am.NumStates())
	}
	if !am.Deterministic() {
		t.Error("am Deterministic() = false, want true")
	}
	if got := am.RandomizedPairs(); len(got) != 0 {
		t.Errorf("am RandomizedPairs() = %v, want none", got)
	}

	coin := MustCompile(coinTable())
	if coin.Deterministic() {
		t.Error("coin Deterministic() = true, want false")
	}
	if got, want := coin.RandomizedPairs(), []Pair[int]{{Rec: 0, Sen: 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("coin RandomizedPairs() = %v, want %v", got, want)
	}

	// Branches with equal outputs merge; a single merged branch compiles
	// as deterministic.
	merged := MustCompile(Table[int]{
		{Rec: 0, Sen: 1}: Choose(
			Branch[int]{W: 1, Rec: 1, Sen: 1},
			Branch[int]{W: 2, Rec: 1, Sen: 1},
		),
	})
	if !merged.Deterministic() {
		t.Error("collapsed Choose: Deterministic() = false, want true")
	}
}

func TestCompiledRuleMatchesHandwritten(t *testing.T) {
	rule := MustCompile(amTable()).Rule()
	r := rand.New(rand.NewPCG(1, 1))
	for _, rec := range []int{-1, 0, 1} {
		for _, sen := range []int{-1, 0, 1} {
			wa, wb := amRule(rec, sen, r)
			ga, gb := rule(rec, sen, r)
			if ga != wa || gb != wb {
				t.Errorf("rule(%d, %d) = (%d, %d), want (%d, %d)", rec, sen, ga, gb, wa, wb)
			}
		}
	}
	// Pairs touching undeclared states are null transitions.
	if a, b := rule(7, 1, r); a != 7 || b != 1 {
		t.Errorf("rule(7, 1) = (%d, %d), want identity", a, b)
	}
}

func TestCompiledRuleRandomizedDistribution(t *testing.T) {
	rule := MustCompile(coinTable()).Rule()
	r := rand.New(rand.NewPCG(7, 9))
	const draws = 40000
	heads := 0
	for i := 0; i < draws; i++ {
		a, b := rule(0, 1, r)
		switch {
		case a == 1 && b == 1:
			heads++
		case a == 0 && b == 0:
		default:
			t.Fatalf("rule(0, 1) = (%d, %d), want (1,1) or (0,0)", a, b)
		}
	}
	if p := float64(heads) / draws; math.Abs(p-0.75) > 0.02 {
		t.Errorf("branch weight 3:1: observed p = %.4f, want 0.75 ± 0.02", p)
	}
}

// tableEngines builds the multiset-engine variants the bypass tests run
// over: batched and dense.
func tableEngines(n int, init func(int, *rand.Rand) int, rule Rule[int], opts ...Option) map[string]func() Engine[int] {
	return map[string]func() Engine[int]{
		"batch": func() Engine[int] { return NewBatch(n, init, rule, opts...) },
		"dense": func() Engine[int] { return NewDense(n, init, rule, opts...) },
	}
}

func amInit(i int, _ *rand.Rand) int { return i%3 - 1 }

func TestTableBypassEliminatesRuleCalls(t *testing.T) {
	c := MustCompile(amTable())
	for name, mk := range tableEngines(4096, amInit, c.Rule(), WithSeed(11), c.Option()) {
		e := mk()
		e.RunTime(8)
		cs := e.Stats()
		if cs.RuleCalls != 0 {
			t.Errorf("%s: declared-deterministic table made %d rule calls, want 0", name, cs.RuleCalls)
		}
		if cs.TableHits == 0 {
			t.Errorf("%s: TableHits = 0, want > 0", name)
		}
	}
	// Without the table the same rule goes through the counting cache.
	e := NewBatch(4096, amInit, c.Rule(), WithSeed(11))
	e.RunTime(8)
	if cs := e.Stats(); cs.RuleCalls == 0 || cs.TableHits != 0 {
		t.Errorf("no table: stats = %+v, want RuleCalls > 0 and TableHits == 0", cs)
	}
}

// TestSequentialStats: the sequential engine steps every interaction on
// its agent array and counts nothing else.
func TestSequentialStats(t *testing.T) {
	const k = 1234
	e := New(64, amInit, amRule, WithSeed(3))
	e.Run(k)
	if got, want := e.Stats(), (Stats{SeqInteractions: k}); got != want {
		t.Errorf("Stats() after %d interactions = %+v, want %+v", k, got, want)
	}
}

func TestWithTableTypeMismatchPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("mismatched WithTable state type did not panic")
		}
	}()
	NewBatch(64, func(i int, _ *rand.Rand) string { return "x" },
		func(a, b string, _ *rand.Rand) (string, string) { return a, b },
		WithTable(MustCompile(amTable())))
}

func snapshotBytes[S comparable](t *testing.T, e Engine[S]) []byte {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	raw, err := snap.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return raw
}

// TestTableByteIdentity is the golden guarantee: for the same seed and
// initial configuration, (a) the handwritten rule, (b) the compiled rule
// without a table, and (c) the compiled rule with WithTable produce
// byte-identical snapshots on every backend. The coin variant checks the
// mixed case, where randomized pairs take the rule path while
// deterministic ones use the bypass.
func TestTableByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		tbl  Table[int]
		hand Rule[int]
		init func(int, *rand.Rand) int
	}{
		{"approxmajority", amTable(), amRule, amInit},
		{"coin", coinTable(), nil, func(i int, _ *rand.Rand) int { return i % 3 }},
	}
	for _, tc := range cases {
		c := MustCompile(tc.tbl)
		rule := c.Rule()
		for _, seed := range []uint64{5, 12} {
			build := func(mk func() Engine[int]) []byte {
				e := mk()
				e.RunTime(10)
				return snapshotBytes(t, e)
			}
			variants := map[string][3]func() Engine[int]{
				"seq": {
					func() Engine[int] { return New(1000, tc.init, rule, WithSeed(seed)) },
					func() Engine[int] { return New(1000, tc.init, rule, WithSeed(seed), c.Option()) },
					func() Engine[int] { return New(1000, tc.init, amRule, WithSeed(seed)) },
				},
				"batch": {
					func() Engine[int] { return NewBatch(1000, tc.init, rule, WithSeed(seed)) },
					func() Engine[int] { return NewBatch(1000, tc.init, rule, WithSeed(seed), c.Option()) },
					func() Engine[int] { return NewBatch(1000, tc.init, amRule, WithSeed(seed)) },
				},
				"dense": {
					func() Engine[int] { return NewDense(1000, tc.init, rule, WithSeed(seed)) },
					func() Engine[int] { return NewDense(1000, tc.init, rule, WithSeed(seed), c.Option()) },
					func() Engine[int] { return NewDense(1000, tc.init, amRule, WithSeed(seed)) },
				},
			}
			for name, v := range variants {
				plain := build(v[0])
				tabled := build(v[1])
				if !bytes.Equal(plain, tabled) {
					t.Errorf("%s/%s seed %d: WithTable changed the snapshot bytes", tc.name, name, seed)
				}
				if tc.hand != nil {
					hand := build(v[2])
					if !bytes.Equal(plain, hand) {
						t.Errorf("%s/%s seed %d: compiled rule diverged from handwritten rule", tc.name, name, seed)
					}
				}
			}
		}
	}
}

// TestTableRestoreByteIdentity snapshots a with-table run mid-flight,
// continues the original, and checks that a restored engine — with the
// table reattached, or without it — continues byte-identically. (As
// everywhere in the snapshot suite, both engines continue from the same
// snapshot point: stopping mid-run splits a batch, so a fresh
// uninterrupted run is schedule-different by construction.)
func TestTableRestoreByteIdentity(t *testing.T) {
	c := MustCompile(coinTable())
	rule := c.Rule()
	init := func(i int, _ *rand.Rand) int { return i % 3 }
	for _, backend := range []string{"batch", "dense"} {
		for _, withTable := range []bool{true, false} {
			var orig Engine[int]
			if backend == "dense" {
				orig = NewDense(1000, init, rule, WithSeed(21), c.Option())
			} else {
				orig = NewBatch(1000, init, rule, WithSeed(21), c.Option())
			}
			orig.RunTime(6)
			mid := snapshotBytes(t, orig)
			snap, err := UnmarshalSnapshot[int](mid)
			if err != nil {
				t.Fatalf("%s: unmarshal: %v", backend, err)
			}
			var opts []Option
			if withTable {
				opts = append(opts, c.Option())
			}
			resumed, err := Restore(snap, rule, opts...)
			if err != nil {
				t.Fatalf("%s: restore: %v", backend, err)
			}
			orig.RunTime(6)
			resumed.RunTime(6)
			if !bytes.Equal(snapshotBytes(t, orig), snapshotBytes(t, resumed)) {
				t.Errorf("%s (restore withTable=%v): restored run diverged from continued original",
					backend, withTable)
			}
		}
	}
}

// TestTableBypassSurvivesCompaction forces heavy interning churn (a
// fallback-threshold trip plus re-concentration) so compact() rebuilds
// the tableView, then checks the byte-identity still holds.
func TestTableCompactionByteIdentity(t *testing.T) {
	c := MustCompile(amTable())
	rule := c.Rule()
	mk := func(opts ...Option) Engine[int] {
		return NewBatch(1000, amInit, rule, append([]Option{WithSeed(31), WithBatchThreshold(2)}, opts...)...)
	}
	plain := mk()
	plain.RunTime(10)
	tabled := mk(c.Option())
	tabled.RunTime(10)
	if !bytes.Equal(snapshotBytes(t, plain), snapshotBytes(t, tabled)) {
		t.Error("fallback/compaction path: WithTable changed the snapshot bytes")
	}
}
