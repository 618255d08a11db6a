// Golden byte-identity for the table-compiled epidemic: on every backend
// (sequential, batched, dense — the multiset ones at test scale and with
// batches of thousands of participants) the compiled table's rule must
// reproduce the handwritten Rule's trajectory byte for byte under the
// same seed, with and without the declared-table bypass.
package epidemic

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"github.com/popsim/popsize/internal/pop"
)

func snapBytes(t *testing.T, e pop.Engine[State]) []byte {
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

func TestTableMatchesRuleByteIdentical(t *testing.T) {
	c := Compiled()
	crule := c.Rule()
	const n = 1200
	init := func(i int, _ *rand.Rand) State {
		return State{Val: boolToInt(i < 5), Member: i < n-200}
	}
	// At n = 1200 every multiset batch is short. The big rows run at
	// n = 2²⁵ instead, where pair-matrix batches hold about 3600
	// receivers and slot batches about 7300 slots, lengths the small rows
	// never reach.
	const big = 1 << 25
	bigStates := []State{{Val: 1, Member: true}, {Val: 0, Member: true}, {Val: 0, Member: false}}
	bigCounts := []int64{1 << 22, 1 << 24, big - 1<<22 - 1<<24}
	type build func(rule pop.Rule[State], opts ...pop.Option) pop.Engine[State]
	backends := map[string]build{
		"seq": func(rule pop.Rule[State], opts ...pop.Option) pop.Engine[State] {
			return pop.New(n, init, rule, opts...)
		},
		"batch": func(rule pop.Rule[State], opts ...pop.Option) pop.Engine[State] {
			return pop.NewBatch(n, init, rule, opts...)
		},
		"batch/big": func(rule pop.Rule[State], opts ...pop.Option) pop.Engine[State] {
			return pop.NewBatchFromCounts(bigStates, bigCounts, rule, opts...)
		},
		"dense": func(rule pop.Rule[State], opts ...pop.Option) pop.Engine[State] {
			return pop.NewDense(n, init, rule, opts...)
		},
		"dense/big": func(rule pop.Rule[State], opts ...pop.Option) pop.Engine[State] {
			return pop.NewDenseFromCounts(bigStates, bigCounts, rule, opts...)
		},
	}
	for name, mk := range backends {
		for _, seed := range []uint64{9, 41} {
			run := func(rule pop.Rule[State], opts ...pop.Option) []byte {
				e := mk(rule, append(opts, pop.WithSeed(seed))...)
				if e.N() == big {
					e.Run(1 << 22)
				} else {
					e.RunTime(12)
				}
				return snapBytes(t, e)
			}
			hand := run(Rule)
			compiled := run(crule)
			tabled := run(crule, c.Option())
			if !bytes.Equal(hand, compiled) {
				t.Errorf("%s seed %d: compiled table rule diverged from handwritten Rule", name, seed)
			}
			if !bytes.Equal(hand, tabled) {
				t.Errorf("%s seed %d: WithTable run diverged from handwritten Rule", name, seed)
			}
		}
	}
}

func TestTableBypassCoversBinaryDomain(t *testing.T) {
	c := Compiled()
	e := pop.NewBatch(2048, func(i int, _ *rand.Rand) State {
		return State{Val: boolToInt(i < 8), Member: i < 1500}
	}, c.Rule(), pop.WithSeed(3), c.Option())
	e.RunTime(10)
	cs := e.Stats()
	if cs.RuleCalls != 0 {
		t.Errorf("binary-domain epidemic with table made %d rule calls, want 0", cs.RuleCalls)
	}
	if cs.TableHits == 0 {
		t.Error("TableHits = 0, want > 0")
	}
	if !Done(e) {
		t.Error("epidemic did not complete in 10 time units at n=2048")
	}
}
