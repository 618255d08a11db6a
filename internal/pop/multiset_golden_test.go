package pop

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"
)

// goldenCase is one pinned multiset-engine run: the engine, the script it
// executes, the SHA-256 of its final marshaled snapshot, the stateDigest
// of that snapshot, and its full Stats() value.
type goldenCase struct {
	name   string
	mk     func() Engine[int]
	ops    []snapOp
	sha    string
	digest string
	stats  any // BatchStats or DenseStats
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
		Par          int
		States       []int
		Counts       []int64
		Agents       []int
		Distinct     int
		SeqMode      bool
		SeqRecheck   int64
	}{snap.N, snap.Interactions, snap.TimeBase, snap.SegStart, snap.RNG, snap.Par,
		snap.States, snap.Counts, snap.Agents, snap.Distinct, snap.SeqMode, snap.SeqRecheck})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMultisetGolden pins the exact trajectories of both multiset engines
// across commits: every backend × parallelism class × closure/table
// combination, a run snapshotted mid-fallback, runs mid-delegation and
// after re-entry, and a churn script. The values were generated once and
// must not change under refactors that claim byte-identity; a change that
// alters a trajectory on purpose regenerates them and says so. A change of
// the snapshot format alone re-pins only the SHAs: the digests and stats
// must hold.
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
			sha:    "65b8fa5aff45c26f896c36fbce2f9cbff2e49b8c7c3c0ccb4200773e1b87806d",
			digest: "927e90e61db2da9fe2da3a37d9729a3e0a7c530ad0a5c295fb04520d523dfc10",
			stats:  BatchStats{Batches: 671, BatchedInteractions: 23615, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 12551, RuleCalls: 11067, TableHits: 0, Compactions: 1}},
		{name: "batch/par2/closure", mk: func() Engine[int] {
			return NewBatch(n, mixedInit, mixedRule, WithSeed(41), WithParallelism(2))
		}, ops: script,
			sha:    "92fabe3f615f2c0096e12b1185ce0a6702fc5fbc6778c6cffa0a77e0ce70fe67",
			digest: "4af21bb7408a473f9acee60cf143e1f99583ad0772f5580ac2af959a49d4954f",
			stats:  BatchStats{Batches: 687, BatchedInteractions: 23617, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 12614, RuleCalls: 11004, TableHits: 0, Compactions: 1}},
		{name: "dense/par0/closure", mk: func() Engine[int] {
			return NewDense(n, mixedInit, mixedRule, WithSeed(41))
		}, ops: script,
			sha:    "1774bc6b326de5d3a3c3e6497847c976f9b63864b9002c9d511ed0e28399ed85",
			digest: "7b31c898784600ca0ca58978699ade68e6e743b404997010940e35bdb2cec3b8",
			stats:  DenseStats{Batches: 664, BatchedInteractions: 23617, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 8864, CacheHits: 12473, RuleCalls: 11143, TableHits: 0, Compactions: 1}},
		{name: "dense/par2/closure", mk: func() Engine[int] {
			return NewDense(n, mixedInit, mixedRule, WithSeed(41), WithParallelism(2))
		}, ops: script,
			sha:    "8cc69459b36b5c6173e2b662fffb10a7f53806a84ce4df8fc14806de197b90fa",
			digest: "4d0384bcfd7dbb6c271081c05ce4b790b84c068f0818d51a8a8effd59180996f",
			stats:  DenseStats{Batches: 685, BatchedInteractions: 23617, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 8227, CacheHits: 12556, RuleCalls: 11053, TableHits: 0, Compactions: 1}},
		{name: "batch/par0/table", mk: func() Engine[int] {
			return NewBatch(n, coinInit, coin.Rule(), WithSeed(43), coin.Option())
		}, ops: script,
			sha:    "ae2a989b57cfb2b3e324577f38e29d8e12516b0f454fdc29fb7283607d7a59cd",
			digest: "f5d70d0aafcb4a0311a6ba830f6374718a55ea3f212ab2f5ea924ae8cd32fb7e",
			stats:  BatchStats{Batches: 668, BatchedInteractions: 23610, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 0, RuleCalls: 3634, TableHits: 19984, Compactions: 1}},
		{name: "batch/par2/table", mk: func() Engine[int] {
			return NewBatch(n, coinInit, coin.Rule(), WithSeed(43), WithParallelism(2), coin.Option())
		}, ops: script,
			sha:    "f2ec582fa0f329f571fca2d8920105ca922a27a051991a5d9788e9b21cacf4af",
			digest: "f3d6f4083030ed5633654e8db675e4dcdf3d982426a911626346eae39ff27350",
			stats:  BatchStats{Batches: 646, BatchedInteractions: 23617, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 0, RuleCalls: 3833, TableHits: 19785, Compactions: 1}},
		{name: "dense/par0/table", mk: func() Engine[int] {
			return NewDense(n, coinInit, coin.Rule(), WithSeed(43), coin.Option())
		}, ops: script,
			sha:    "292982c35dd1032e63520478dda05e092de8bb556e8ee5a4aa5e2551645cfc16",
			digest: "13d0ed88f585b612f33409bc43b2eb2ab95870db93157e39457d84fcb8c06ab5",
			stats:  DenseStats{Batches: 669, BatchedInteractions: 23614, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 5932, CacheHits: 0, RuleCalls: 3748, TableHits: 19870, Compactions: 1}},
		{name: "dense/par2/table", mk: func() Engine[int] {
			return NewDense(n, coinInit, coin.Rule(), WithSeed(43), WithParallelism(2), coin.Option())
		}, ops: script,
			sha:    "3360834bd84db86876caf7e69720060c56764186e851b773583660785cc2dffc",
			digest: "adf7a8947f46740ab8f66cec9a23392befb806c8088c7ef0db5c9819f7f70cb9",
			stats:  DenseStats{Batches: 700, BatchedInteractions: 23605, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 5798, CacheHits: 0, RuleCalls: 3720, TableHits: 19898, Compactions: 1}},
		{name: "batch/mid-fallback", mk: func() Engine[int] {
			return NewBatch(600, zero, explodeRule, WithSeed(5), WithBatchThreshold(16))
		}, ops: []snapOp{opRun(20 * 600)},
			sha:    "8316094beea92fd85fbf9304b3894a29d639dc695f83f9b16e2bb089eaf90ca3",
			digest: "45832878ebb2d25bf44b3a86da17849db5855ca4d71914d57c813d1ca3523d1b",
			stats:  BatchStats{Batches: 96, BatchedInteractions: 1646, SeqInteractions: 10354, Fallbacks: 1, Reentries: 0, CacheHits: 1519, RuleCalls: 127, TableHits: 0, Compactions: 1}},
		{name: "dense/mid-delegation", mk: func() Engine[int] {
			return NewDense(600, zero, explodeRule, WithSeed(5), WithDenseThreshold(8))
		}, ops: []snapOp{opRun(2 * 600)},
			sha:    "94cace0b85823eae64d9e11c15b93019e70059a70ac782e14ff71532bdac0688",
			digest: "04589efeda95cd399bc8092ca858a5367c7d01d5976512c8365ba0591a41bd60",
			stats:  DenseStats{Batches: 74, BatchedInteractions: 1200, DelegatedInteractions: 386, Delegations: 1, Reentries: 0, PairCells: 519, CacheHits: 1110, RuleCalls: 80, TableHits: 0, Compactions: 1}},
		{name: "batch/after-reentry", mk: func() Engine[int] {
			return NewBatch(600, ident, mixedRule, WithSeed(13), WithBatchThreshold(48))
		}, ops: []snapOp{opRun(30 * 600)},
			sha:    "18110718b66eb6303f0081c6e97b118c4034caf4908bacaa5d3922dcc5671639",
			digest: "9d3325437d2959112724f19b91397689b41d73f020a8f22221fb87ca41c1dc59",
			stats:  BatchStats{Batches: 955, BatchedInteractions: 15597, SeqInteractions: 2400, Fallbacks: 1, Reentries: 1, CacheHits: 7552, RuleCalls: 8048, TableHits: 0, Compactions: 2}},
		{name: "dense/after-reentry", mk: func() Engine[int] {
			return NewDense(600, ident, mixedRule, WithSeed(13), WithDenseThreshold(48))
		}, ops: []snapOp{opRun(30 * 600)},
			sha:    "265eb5930e33686e1f747f3e7731032d5bfc174a47d703a197b5fe7a30296f7d",
			digest: "8cb9f762638333c29890d2a40b2f1a74a97bbdf766d68ecceac44c2e77548687",
			stats:  DenseStats{Batches: 1104, BatchedInteractions: 17995, DelegatedInteractions: 2400, Delegations: 1, Reentries: 1, PairCells: 6706, CacheHits: 8278, RuleCalls: 9722, TableHits: 0, Compactions: 3}},
		{name: "batch/par0/churn", mk: func() Engine[int] {
			return NewBatch(2000, mixedInit, mixedRule, WithSeed(77))
		}, ops: churn,
			sha:    "444f0415869b54fbfa8b81c2890f853aef6df71b30cc11ee1559542769a01eaa",
			digest: "aba5a935f0843f0a1f72a26596e37a6833c362e26ade9b03071a43aee5aa1d37",
			stats:  BatchStats{Batches: 528, BatchedInteractions: 14985, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 8201, RuleCalls: 6784, TableHits: 0, Compactions: 1}},
		{name: "batch/par2/churn", mk: func() Engine[int] {
			return NewBatch(2000, mixedInit, mixedRule, WithSeed(77), WithParallelism(2))
		}, ops: churn,
			sha:    "a5f21fc86527cb2ed9f59e68eda8eed25259cc86792b4ab281817a0268442be9",
			digest: "7a94bc860b96e27797e87884014302427061cb03a8b74e0de9e2a233cb79e86e",
			stats:  BatchStats{Batches: 520, BatchedInteractions: 14985, SeqInteractions: 0, Fallbacks: 0, Reentries: 0, CacheHits: 8227, RuleCalls: 6758, TableHits: 0, Compactions: 1}},
		{name: "dense/par0/churn", mk: func() Engine[int] {
			return NewDense(2000, mixedInit, mixedRule, WithSeed(77))
		}, ops: churn,
			sha:    "609d03279862a62cb1cb68026a99a40d26120abed8c871b3ec04ad1a3c48e42a",
			digest: "28fb863c2d22617740e999089166ee86d39561c3fcf9795e65a6fc862c96cd6e",
			stats:  DenseStats{Batches: 542, BatchedInteractions: 14980, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 6989, CacheHits: 8233, RuleCalls: 6752, TableHits: 0, Compactions: 1}},
		{name: "dense/par2/churn", mk: func() Engine[int] {
			return NewDense(2000, mixedInit, mixedRule, WithSeed(77), WithParallelism(2))
		}, ops: churn,
			sha:    "dea189c195edc4db441c7e5c1b5e7e23b7b7e5e47b00d6fcceba1e4ecf7f5454",
			digest: "d9abac5aacfbcdc02ff434b82605c18e79fe41635d10bd024ef19bbb9bfa1524",
			stats:  DenseStats{Batches: 503, BatchedInteractions: 14980, DelegatedInteractions: 0, Delegations: 0, Reentries: 0, PairCells: 6102, CacheHits: 8303, RuleCalls: 6672, TableHits: 0, Compactions: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
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
			got := hex.EncodeToString(sum[:])
			if d := stateDigest(t, snap); d != tc.digest {
				t.Errorf("state digest = %s, want %s", d, tc.digest)
			}
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
