package pop

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// goldenCase is one pinned multiset-engine run: the engine, the script it
// executes, the SHA-256 of its final marshaled snapshot, the stateDigest
// of that snapshot, and its full Stats() value.
type goldenCase struct {
	name   string // a %d, if present, takes the parallelism
	mk     func(par int) Engine[int]
	ops    []snapOp
	sha    string
	digest string
	stats  Stats
	tree   bool // run under shrinkSplitter, so pair-matrix batches recurse through the splitter tree
}

// stateDigest is the SHA-256 of a snapshot's engine-state fields only —
// configuration, counters, clocks, rng and mode — so, unlike the snapshot
// SHA, it survives format changes that leave the engine state alone.
func stateDigest(t *testing.T, snap *Snapshot[int]) string {
	t.Helper()
	b, err := json.Marshal(struct {
		N            int
		Interactions int64
		TimeBase     float64
		SegStart     int64
		RNG          []byte
		States       []int
		Counts       []int64
		Agents       []int
		Distinct     int
		SeqMode      bool
		SeqRecheck   int64
	}{snap.N, snap.Interactions, snap.TimeBase, snap.SegStart, snap.RNG,
		snap.States, snap.Counts, snap.Agents, snap.Distinct, snap.SeqMode, snap.SeqRecheck})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMultisetGolden pins the exact trajectories of both multiset engines
// across commits: every backend × closure/table combination, a run
// snapshotted mid-fallback, runs mid-delegation and after re-entry, and a
// churn script, plus dense tree cases (closure rule under churn, table
// under the main script) whose batches run through the splitter tree
// instead of its root leaf. Each case must reach its one row of pins
// under every parallelism in goldenPars: the worker target never moves a
// trajectory.
// The values were generated once and must not change under refactors that
// claim byte-identity; a change that alters a trajectory on purpose
// regenerates them and says so. A change of the snapshot format alone
// re-pins only the SHAs: the digests and stats must hold.
func TestMultisetGolden(t *testing.T) {
	const n = 3000
	mixedInit := func(i int, _ *rand.Rand) int { return i % 5 }
	coinInit := func(i int, _ *rand.Rand) int { return i % 3 }
	zero := func(int, *rand.Rand) int { return 0 }
	ident := func(i int, _ *rand.Rand) int { return i }
	coin := MustCompile(coinTable())
	script := []snapOp{opRun(4 * n), opRunTime(0.7), opRun(3 * n), opRun(517),
		func(e Engine[int]) { e.Step() }}
	churn := []snapOp{opRun(n), opJoin(3, 400), opRun(n), opLeave(700), opRun(n / 2),
		opJoin(1, 250), opRun(2 * n), opLeave(300), opRunTime(0.9)}

	cases := []goldenCase{
		{name: "batch/par%d/closure", mk: func(par int) Engine[int] {
			return NewBatch(n, mixedInit, mixedRule, WithSeed(41), WithParallelism(par))
		}, ops: script,
			sha:    "bd1467b4f6862e33df6448a853fdf42f2bda78a50fdca77ac7a00ee2361dc8e1",
			digest: "15d248b44b04230356250a2a1676fc0603b1ceb43fff2e468b8c24ace41206a3",
			stats:  Stats{Batches: 670, BatchedInteractions: 23611, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 12538, RuleCalls: 11080, TableHits: 0, Compactions: 1}},
		{name: "dense/par%d/closure", mk: func(par int) Engine[int] {
			return NewDense(n, mixedInit, mixedRule, WithSeed(41), WithParallelism(par))
		}, ops: script,
			sha:    "002acc2555c3d8fc959bc55cc1e4fd59c03e8ac4eb7ca69928be2294bdda1a8a",
			digest: "cd6d0872dd1660f4d7ac8a08c7b2bbc714305cc63dcb7596cb880a7eb903321d",
			stats:  Stats{Batches: 678, BatchedInteractions: 23611, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 8969, CacheHits: 12578, RuleCalls: 11038, TableHits: 0, Compactions: 1}},
		{name: "batch/par%d/table", mk: func(par int) Engine[int] {
			return NewBatch(n, coinInit, coin.Rule(), WithSeed(43), WithParallelism(par), coin.Option())
		}, ops: script,
			sha:    "11689018dff3ad3365bd1777decca366834623d7b6678453837169108d671ae0",
			digest: "d920454b2197c36a9351a78f4671d6d5294247c94cc4e177d1ac48455f276f30",
			stats:  Stats{Batches: 697, BatchedInteractions: 23611, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 0, RuleCalls: 3753, TableHits: 19865, Compactions: 1}},
		{name: "dense/par%d/table", mk: func(par int) Engine[int] {
			return NewDense(n, coinInit, coin.Rule(), WithSeed(43), WithParallelism(par), coin.Option())
		}, ops: script,
			sha:    "22c32f4f0ad0a9043a32576e7c9acc0f0f4b485f68188fe0fbc97719e4c42ab0",
			digest: "50d7828a32d321a08a83b539fa6c0efe139c1df8b76d9e5fb4798d7cb39046d2",
			stats:  Stats{Batches: 679, BatchedInteractions: 23611, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 6097, CacheHits: 0, RuleCalls: 3695, TableHits: 19923, Compactions: 1}},
		{name: "batch/mid-fallback", mk: func(par int) Engine[int] {
			return NewBatch(600, zero, explodeRule, WithSeed(5), WithBatchThreshold(16), WithParallelism(par))
		}, ops: []snapOp{opRun(20 * 600)},
			sha:    "936489517c225051af477202d2f9a2146b944c2f8921392bbe2138e79e4907bf",
			digest: "d0dd70eef3c85d85602402362c216ca5ddf0e9638f05e98bbe5531a4c0438267",
			stats:  Stats{Batches: 128, BatchedInteractions: 2093, SeqInteractions: 9907, Fallbacks: 1, Reentries: 0, CacheHits: 1912, RuleCalls: 181, TableHits: 0, Compactions: 1}},
		{name: "dense/mid-delegation", mk: func(par int) Engine[int] {
			return NewDense(600, zero, explodeRule, WithSeed(5), WithDenseThreshold(8), WithParallelism(par))
		}, ops: []snapOp{opRun(2 * 600)},
			sha:    "5e606245c19046c5bdea32d1ec970abeaef83f7b92954a3f6726c3ee3db61dd1",
			digest: "9ebf92277be0645d353981ecd236f87c388a9f2f0aa83a0bf018ef00d9acd251",
			stats:  Stats{Batches: 73, BatchedInteractions: 1200, DelegatedInteractions: 499, Delegations: 1, DenseReentries: 0, PairCells: 398, CacheHits: 1116, RuleCalls: 74, TableHits: 0, Compactions: 1}},
		{name: "batch/after-reentry", mk: func(par int) Engine[int] {
			return NewBatch(600, ident, mixedRule, WithSeed(13), WithBatchThreshold(48), WithParallelism(par))
		}, ops: []snapOp{opRun(30 * 600)},
			sha:    "39b592c411fb2689c6148d1cf147b7e858c94ad3a111682b1f9864dd0095650b",
			digest: "849da4daaab3eeee45e6f86918b838f81518644c2f30ef0961126803753ab7a9",
			stats:  Stats{Batches: 983, BatchedInteractions: 15595, SeqInteractions: 2400, Fallbacks: 1, Reentries: 1, CacheHits: 7562, RuleCalls: 8038, TableHits: 0, Compactions: 2}},
		{name: "dense/after-reentry", mk: func(par int) Engine[int] {
			return NewDense(600, ident, mixedRule, WithSeed(13), WithDenseThreshold(48), WithParallelism(par))
		}, ops: []snapOp{opRun(30 * 600)},
			sha:    "d0ddb44653f3a3d32947b85b303e6abfa0f1b9e98411d38c83ae4b318739e0d0",
			digest: "35635fc8f55cac44e777850c149c10f331d2a78c6293855ff18f5a88a72d89f0",
			stats:  Stats{Batches: 1138, BatchedInteractions: 17994, DelegatedInteractions: 2400, Delegations: 1, DenseReentries: 1, PairCells: 6559, CacheHits: 8319, RuleCalls: 9681, TableHits: 0, Compactions: 3}},
		{name: "batch/par%d/churn", mk: func(par int) Engine[int] {
			return NewBatch(2000, mixedInit, mixedRule, WithSeed(77), WithParallelism(par))
		}, ops: churn,
			sha:    "b7d3dea2a3cbe503a869a6a874543dfbc4c5991d8fafde610e4bca0672d5e2aa",
			digest: "5a435f264e0fd756bb3247534eaaf6423d0dbf4d3e07c1473ce020c2a8c2c8f9",
			stats:  Stats{Batches: 520, BatchedInteractions: 14985, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 8281, RuleCalls: 6704, TableHits: 0, Compactions: 1}},
		{name: "dense/par%d/churn", mk: func(par int) Engine[int] {
			return NewDense(2000, mixedInit, mixedRule, WithSeed(77), WithParallelism(par))
		}, ops: churn,
			sha:    "6cecbd2414dbc5f7a1ffc4c3050303e09d7ae593b6ff8f80d031002330cd81f9",
			digest: "01f0cb4a09d70b2471ae2ff9f6aeb34dea771b9c1f26d808fe16a1f0c6ed9428",
			stats:  Stats{Batches: 526, BatchedInteractions: 14977, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 6976, CacheHits: 8239, RuleCalls: 6738, TableHits: 0, Compactions: 1}},
		{name: "dense/par%d/tree", tree: true, mk: func(par int) Engine[int] {
			return NewDense(n, mixedInit, mixedRule, WithSeed(47), WithParallelism(par))
		}, ops: churn,
			sha:    "995a6e2d8ca3c0d94a6aef5f0212c56d65b19c54bf96f234f9588a9edbb276d6",
			digest: "0581fa3c7fd99c0e2b87800c2de80ec5b70bd66230f4fb6fd440a2e96ba83de5",
			stats:  Stats{Batches: 445, BatchedInteractions: 15885, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 5951, CacheHits: 9021, RuleCalls: 6854, TableHits: 0, Compactions: 1}},
		{name: "dense/par%d/table-tree", tree: true, mk: func(par int) Engine[int] {
			return NewDense(n, coinInit, coin.Rule(), WithSeed(53), WithParallelism(par), coin.Option())
		}, ops: script,
			sha:    "2ce40351c58eda853a20171d888bcc1e5827bb79bd2284b53e7073385f804f0a",
			digest: "9f36c43c7fcbd5657a57a4285db5a889188fdb047f348a80eb9898dbd8f3c95c",
			stats:  Stats{Batches: 674, BatchedInteractions: 23617, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 5816, CacheHits: 0, RuleCalls: 3641, TableHits: 19977, Compactions: 1}},
	}
	for _, tc := range cases {
		if strings.Contains(tc.name, "%d") {
			for _, par := range goldenPars {
				t.Run(fmt.Sprintf(tc.name, par), func(t *testing.T) { checkGolden(t, tc, par) })
			}
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range goldenPars {
				checkGolden(t, tc, par)
			}
		})
	}
}

// goldenPars are the WithParallelism values that must all reach a golden
// case's pinned values: auto, the serial worker target and a fan-out one.
var goldenPars = []int{0, 1, 2}

// checkGolden runs one golden case at parallelism par and compares its
// snapshot SHA, state digest and Stats() with the pins.
func checkGolden(t *testing.T, tc goldenCase, par int) {
	t.Helper()
	if tc.tree {
		shrinkSplitter(t)
	}
	e := tc.mk(par)
	for _, op := range tc.ops {
		op(e)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != tc.sha {
		t.Errorf("par=%d: snapshot sha256 = %s, want %s", par, got, tc.sha)
	}
	if d := stateDigest(t, snap); d != tc.digest {
		t.Errorf("par=%d: state digest = %s, want %s", par, d, tc.digest)
	}
	if got := e.Stats(); got != tc.stats {
		t.Errorf("par=%d: Stats() = %#v, want %#v", par, got, tc.stats)
	}
}
