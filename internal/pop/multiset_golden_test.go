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
	tree   bool // run under shrinkSplitter, so churn removals split their composition
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
// churn script; dense tree cases (closure and table rules under churn)
// whose removals split their composition into a tree of node streams;
// and dense runs at n = 10⁸ whose pair-matrix batches hold about 6300
// receivers, far above the test-scale ones, at production settings. Each
// case must reach its one row of pins under every WithParallelism value
// in goldenPars: the option is a no-op and never moves a trajectory.
// The values were generated once and must not change under refactors that
// claim byte-identity; a change that alters a trajectory on purpose
// regenerates them and says so. A change of the snapshot format alone
// re-pins only the SHAs: the digests and stats must hold.
func TestMultisetGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		if strings.Contains(tc.name, "%d") {
			for _, par := range goldenPars {
				t.Run(fmt.Sprintf(tc.name, par), func(t *testing.T) { checkGolden(t, tc, par, 0) })
			}
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range goldenPars {
				checkGolden(t, tc, par, 0)
			}
		})
	}
}

// TestCacheSizeInvariance reruns every golden case with the transition
// cache pinned at the policy's smallest and largest sizes, at every
// parallelism in goldenPars. The cache holds only transitions that drew
// no randomness, so its size must move neither the snapshot nor any
// counter but the cache's own hit and miss counts (see checkGolden).
func TestCacheSizeInvariance(t *testing.T) {
	for _, tc := range goldenCases() {
		for _, lg := range []uint{cacheMinLog, cacheMaxLog} {
			t.Run(fmt.Sprintf("2^%d/%s", lg, strings.ReplaceAll(tc.name, "par%d/", "")), func(t *testing.T) {
				for _, par := range goldenPars {
					checkGolden(t, tc, par, lg)
				}
			})
		}
	}
}

// goldenCases lists TestMultisetGolden's pinned runs.
func goldenCases() []goldenCase {
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
	large := []snapOp{opRun(1 << 20), opLeave(1 << 16), opRun(1 << 19), opJoin(2, 5000), opRun(1<<19 + 7)}

	return []goldenCase{
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
			stats:  Stats{Batches: 128, BatchedInteractions: 2093, SeqInteractions: 9907, Fallbacks: 1, Reentries: 0, CacheHits: 1898, RuleCalls: 195, TableHits: 0, Compactions: 1}},
		{name: "dense/mid-delegation", mk: func(par int) Engine[int] {
			return NewDense(600, zero, explodeRule, WithSeed(5), WithDenseThreshold(8), WithParallelism(par))
		}, ops: []snapOp{opRun(2 * 600)},
			sha:    "5e606245c19046c5bdea32d1ec970abeaef83f7b92954a3f6726c3ee3db61dd1",
			digest: "9ebf92277be0645d353981ecd236f87c388a9f2f0aa83a0bf018ef00d9acd251",
			stats:  Stats{Batches: 73, BatchedInteractions: 1200, DelegatedInteractions: 499, Delegations: 1, DenseReentries: 0, PairCells: 398, CacheHits: 1105, RuleCalls: 85, TableHits: 0, Compactions: 1}},
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
			sha:    "7f3f92761047a38379011fa15993af6296f226430be68ff834429c7a0f5d766a",
			digest: "24ee93ec4459f9f6acaca345ee5ab04dbe2519ddc145cd890d93b2f16e2a6f54",
			stats:  Stats{Batches: 454, BatchedInteractions: 15878, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 6812, CacheHits: 8976, RuleCalls: 6904, TableHits: 0, Compactions: 1}},
		{name: "dense/par%d/table-tree", tree: true, mk: func(par int) Engine[int] {
			return NewDense(n, coinInit, coin.Rule(), WithSeed(53), WithParallelism(par), coin.Option())
		}, ops: churn,
			sha:    "007b90b9ce1dfa3d5dc98356345c375ed7dbeb0d6d350060a6f8de6eca0f6033",
			digest: "1a8cdccd5dc8da924a6d66ea07bf53648bb76e751821578cc4c902de1e3fb629",
			stats:  Stats{Batches: 460, BatchedInteractions: 15885, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 6824, CacheHits: 2709, RuleCalls: 1897, TableHits: 11277, Compactions: 1}},
		{name: "dense/large-batch", mk: func(par int) Engine[int] {
			return NewDenseFromCounts([]int{0, 1, 2, 3, 4}, []int64{3e7, 25e6, 2e7, 15e6, 1e7}, mixedRule,
				WithSeed(59), WithParallelism(par))
		}, ops: large,
			sha:    "666181337484e8f3a0d1ddf734c8c0cb1d68cc078a711c06412618aded6d7c6a",
			digest: "b789e764df893c7bbef711b04cf47615420344636c39d922f36d77497314e9b7",
			stats:  Stats{Batches: 329, BatchedInteractions: 2097159, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 8225, CacheHits: 1621563, RuleCalls: 468057, TableHits: 0, Compactions: 1}},
		{name: "dense/large-batch-table", mk: func(par int) Engine[int] {
			return NewDenseFromCounts([]int{0, 1, 2}, []int64{4e7, 35e6, 25e6}, coin.Rule(),
				WithSeed(61), WithParallelism(par), coin.Option())
		}, ops: large,
			sha:    "1a7dd4304280a9d9d518d34aa2dc3aec5a96cc071cbea9427c01525810369688",
			digest: "65b1f65ae9140363248600592db32bae2261d36632f1acb41967b928bbf2c23a",
			stats:  Stats{Batches: 342, BatchedInteractions: 2097159, DelegatedInteractions: 0, Delegations: 0, DenseReentries: 0, PairCells: 3078, CacheHits: 0, RuleCalls: 294070, TableHits: 1803089, Compactions: 1}},
	}
}

// goldenPars are the WithParallelism values that must all reach a golden
// case's pinned values. The option is a no-op; callers that compare runs
// built at different values rely on that.
var goldenPars = []int{0, 1, 2}

// checkGolden runs one golden case at parallelism par and compares its
// snapshot SHA, state digest and Stats() with the pins. A nonzero pin
// fixes the transition cache at 1<<pin slots from construction on; the
// pinned Stats() then leave out CacheHits and RuleCalls, which count the
// cache's hits and misses. PairCells counts one cell per drawn pairing
// piece, cached or not, so it must hold at every cache size.
func checkGolden(t *testing.T, tc goldenCase, par int, pin uint) {
	t.Helper()
	if tc.tree {
		shrinkSplitter(t)
	}
	e := tc.mk(par)
	if pin > 0 {
		m := coreOf(e)
		m.cachePin = pin
		m.rehomeCache(pin)
	}
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
	got, want := e.Stats(), tc.stats
	if pin > 0 {
		got.CacheHits, got.RuleCalls = 0, 0
		want.CacheHits, want.RuleCalls = 0, 0
	}
	if got != want {
		t.Errorf("par=%d: Stats() = %#v, want %#v", par, got, want)
	}
}

// coreOf returns a multiset engine's core.
func coreOf(e Engine[int]) *multiset[int] {
	switch e := e.(type) {
	case *BatchSim[int]:
		return &e.multiset
	case *DenseSim[int]:
		return &e.multiset
	}
	panic(fmt.Sprintf("pop: %T is not a multiset engine", e))
}
