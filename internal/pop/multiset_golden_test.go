package pop

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"reflect"
	"testing"
)

// goldenCase is one pinned multiset-engine run: the engine, the script it
// executes, and the SHA-256 of its final marshaled snapshot plus its full
// Stats() value.
type goldenCase struct {
	name  string
	mk    func() Engine[int]
	ops   []snapOp
	sha   string
	stats any // BatchStats or DenseStats
}

// TestMultisetGolden pins the exact trajectories of both multiset engines
// across commits: every backend × parallelism class × closure/table
// combination, a run snapshotted mid-fallback, runs mid-delegation and
// after re-entry, and a churn script. The values were generated once and
// must not change under refactors that claim byte-identity; a change that
// alters a trajectory on purpose regenerates them and says so.
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
		{name: "batch/par0/closure", mk: func() Engine[int] {
			return NewBatch(n, mixedInit, mixedRule, WithSeed(41))
		}, ops: script,
			sha:   "e0e89624c7c8c8a0a8ceecbac73b18cccd04999c7880e087f1211bf611f5d752",
			stats: BatchStats{Batches: 671, BatchedInteractions: 23615, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 12551, RuleCalls: 11067, TableHits: 0, Compactions: 1}},
		{name: "batch/par2/closure", mk: func() Engine[int] {
			return NewBatch(n, mixedInit, mixedRule, WithSeed(41), WithParallelism(2))
		}, ops: script,
			sha:   "ddac9224dafbda8b81c857bdf4166610d08358712130e06d33485d71f82c3ca8",
			stats: BatchStats{Batches: 687, BatchedInteractions: 23617, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 12614, RuleCalls: 11004, TableHits: 0, Compactions: 1}},
		{name: "dense/par0/closure", mk: func() Engine[int] {
			return NewDense(n, mixedInit, mixedRule, WithSeed(41))
		}, ops: script,
			sha:   "536d60bbb8fec6d8981979ec2ef6869fd8637db05cf59109db618a70be939c86",
			stats: DenseStats{Batches: 664, BatchedInteractions: 23617, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 8864, CacheHits: 12473, RuleCalls: 11143, TableHits: 0, Compactions: 1}},
		{name: "dense/par2/closure", mk: func() Engine[int] {
			return NewDense(n, mixedInit, mixedRule, WithSeed(41), WithParallelism(2))
		}, ops: script,
			sha:   "209103888283bbcdb0904bb123188e9a608e7e72df72cbe47802d84d147d4102",
			stats: DenseStats{Batches: 685, BatchedInteractions: 23617, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 8227, CacheHits: 12556, RuleCalls: 11053, TableHits: 0, Compactions: 1}},
		{name: "batch/par0/table", mk: func() Engine[int] {
			return NewBatch(n, coinInit, coin.Rule(), WithSeed(43), coin.Option())
		}, ops: script,
			sha:   "591467a3fcfd2bffdfd67f3cb49eee41774a1aa3083978a26609ed35076f1576",
			stats: BatchStats{Batches: 668, BatchedInteractions: 23610, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 0, RuleCalls: 3634, TableHits: 19984, Compactions: 1}},
		{name: "batch/par2/table", mk: func() Engine[int] {
			return NewBatch(n, coinInit, coin.Rule(), WithSeed(43), WithParallelism(2), coin.Option())
		}, ops: script,
			sha:   "60d018ac227e904f98b460126f8e0ace3d502bca2727a7dcf74cee219f3b7d11",
			stats: BatchStats{Batches: 646, BatchedInteractions: 23617, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 0, RuleCalls: 3833, TableHits: 19785, Compactions: 1}},
		{name: "dense/par0/table", mk: func() Engine[int] {
			return NewDense(n, coinInit, coin.Rule(), WithSeed(43), coin.Option())
		}, ops: script,
			sha:   "46209c2febe2806bb3f43fd828f628228f4d473864e634e825696ae28daaa343",
			stats: DenseStats{Batches: 669, BatchedInteractions: 23614, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 5932, CacheHits: 0, RuleCalls: 3748, TableHits: 19870, Compactions: 1}},
		{name: "dense/par2/table", mk: func() Engine[int] {
			return NewDense(n, coinInit, coin.Rule(), WithSeed(43), WithParallelism(2), coin.Option())
		}, ops: script,
			sha:   "8a1b9b59b2e3a0eff4a2b59fc7a067a016720faf623e017657ce29f7008fdc07",
			stats: DenseStats{Batches: 700, BatchedInteractions: 23605, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 5798, CacheHits: 0, RuleCalls: 3720, TableHits: 19898, Compactions: 1}},
		{name: "batch/mid-fallback", mk: func() Engine[int] {
			return NewBatch(600, zero, explodeRule, WithSeed(5), WithBatchThreshold(16))
		}, ops: []snapOp{opRun(20 * 600)},
			sha:   "1ef30bfb029483fac05b6828f1661ce2dd6eb88a67c51658f623823d34a26f7e",
			stats: BatchStats{Batches: 96, BatchedInteractions: 1646, SeqInteractions: 10354, Fallbacks: 1, Reentries: 0, CacheHits: 1519, RuleCalls: 127, TableHits: 0, Compactions: 1}},
		{name: "dense/mid-delegation", mk: func() Engine[int] {
			return NewDense(600, zero, explodeRule, WithSeed(5), WithDenseThreshold(8))
		}, ops: []snapOp{opRun(2 * 600)},
			sha:   "853a28e3ae8afea2b58e3b1e44a85db9fb2b9f928c3542d01b181324813f18fe",
			stats: DenseStats{Batches: 54, BatchedInteractions: 814, DelegatedInteractions: 386, Delegations: 1, Reentries: 0, PairCells: 519, CacheHits: 762, RuleCalls: 42, TableHits: 0, Compactions: 1}},
		{name: "batch/after-reentry", mk: func() Engine[int] {
			return NewBatch(600, ident, mixedRule, WithSeed(13), WithBatchThreshold(48))
		}, ops: []snapOp{opRun(30 * 600)},
			sha:   "b3d5ec24f214eb05b83b1910133f0a2de17365511392b330ab056508c5faf897",
			stats: BatchStats{Batches: 955, BatchedInteractions: 15597, SeqInteractions: 2400, Fallbacks: 1, Reentries: 1, CacheHits: 7552, RuleCalls: 8048, TableHits: 0, Compactions: 2}},
		{name: "dense/after-reentry", mk: func() Engine[int] {
			return NewDense(600, ident, mixedRule, WithSeed(13), WithDenseThreshold(48))
		}, ops: []snapOp{opRun(30 * 600)},
			sha:   "7e49665ec06fb44dd2acbd04fe10a9547f1c57ee6821453d5edb8616475b4b07",
			stats: DenseStats{Batches: 899, BatchedInteractions: 14400, DelegatedInteractions: 3600, Delegations: 1, Reentries: 1, PairCells: 6307, CacheHits: 6970, RuleCalls: 7425, TableHits: 0, Compactions: 2}},
		{name: "batch/par0/churn", mk: func() Engine[int] {
			return NewBatch(2000, mixedInit, mixedRule, WithSeed(77))
		}, ops: churn,
			sha:   "119faa55fb984705014af3dad927bb513393591342e64a0f1df4e5589631e8b1",
			stats: BatchStats{Batches: 528, BatchedInteractions: 14985, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 8201, RuleCalls: 6784, TableHits: 0, Compactions: 1}},
		{name: "batch/par2/churn", mk: func() Engine[int] {
			return NewBatch(2000, mixedInit, mixedRule, WithSeed(77), WithParallelism(2))
		}, ops: churn,
			sha:   "25b39193df4146aee0f453b1551dfc551e2f3a449960d679a03972ac4274d47b",
			stats: BatchStats{Batches: 520, BatchedInteractions: 14985, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 8227, RuleCalls: 6758, TableHits: 0, Compactions: 1}},
		{name: "dense/par0/churn", mk: func() Engine[int] {
			return NewDense(2000, mixedInit, mixedRule, WithSeed(77))
		}, ops: churn,
			sha:   "958429d16fed694f8e9525c214b36ee9c31b50d4ac274f49f1661be185ccebac",
			stats: DenseStats{Batches: 542, BatchedInteractions: 14980, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 6989, CacheHits: 8233, RuleCalls: 6752, TableHits: 0, Compactions: 1}},
		{name: "dense/par2/churn", mk: func() Engine[int] {
			return NewDense(2000, mixedInit, mixedRule, WithSeed(77), WithParallelism(2))
		}, ops: churn,
			sha:   "b3570fa2ac211e434d39d47d35a40157d0a72e23969871c52b3e4c2647abd342",
			stats: DenseStats{Batches: 503, BatchedInteractions: 14980, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 6102, CacheHits: 8303, RuleCalls: 6672, TableHits: 0, Compactions: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			for _, op := range tc.ops {
				op(e)
			}
			sum := sha256.Sum256(mustSnapshotBytes(t, e))
			got := hex.EncodeToString(sum[:])
			var stats any
			switch v := e.(type) {
			case *BatchSim[int]:
				stats = v.Stats()
			case *DenseSim[int]:
				stats = v.Stats()
			}
			if got != tc.sha {
				t.Errorf("snapshot sha256 = %s, want %s", got, tc.sha)
			}
			if !reflect.DeepEqual(stats, tc.stats) {
				t.Errorf("Stats() = %+v, want %+v", stats, tc.stats)
			}
		})
	}
}
