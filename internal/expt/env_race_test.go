package expt

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
)

// runEnvSweep executes a def's points through sweep.RunContext with the
// spec stamped from the def's env — the same stamping the daemon applies —
// and returns the canonical record bytes.
func runEnvSweep(d Def, seed uint64) ([]byte, error) {
	var out bytes.Buffer
	res, err := sweep.RunContext(context.Background(),
		sweep.Spec{Points: d.Points, BaseSeed: seed, Backend: d.Env.Backend},
		sweep.Options{Out: &out})
	if err != nil {
		return nil, err
	}
	return sweep.CanonicalJSONL(res.Sorted())
}

// TestConcurrentHeterogeneousEnvs is the tentpole's determinism contract:
// with engine configuration carried by each suite's Env instead of
// process-wide atomics, two sweeps with different backends can run
// concurrently in one process and each still produces canonical record
// bytes identical to its solo run. Run under -race this also proves no
// shared engine-config state remains.
func TestConcurrentHeterogeneousEnvs(t *testing.T) {
	cfg := core.FastConfig()
	defA := Fig2Def(Env{Backend: pop.Sequential}, cfg, []int{32, 64}, 2)
	defB := EpidemicDef(Env{Backend: pop.Dense}, []int{64, 128}, 2)

	solo := func(d Def, seed uint64) []byte {
		b, err := runEnvSweep(d, seed)
		if err != nil {
			t.Fatalf("solo sweep %s: %v", d.ID, err)
		}
		return b
	}
	soloA, soloB := solo(defA, 11), solo(defB, 23)

	var wg sync.WaitGroup
	var concA, concB []byte
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); concA, errA = runEnvSweep(defA, 11) }()
	go func() { defer wg.Done(); concB, errB = runEnvSweep(defB, 23) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent sweeps: %v / %v", errA, errB)
	}

	if !bytes.Equal(soloA, concA) {
		t.Errorf("seq suite diverged when run beside a dense suite:\nsolo:\n%s\nconcurrent:\n%s", soloA, concA)
	}
	if !bytes.Equal(soloB, concB) {
		t.Errorf("dense/par=2 suite diverged when run beside a seq suite:\nsolo:\n%s\nconcurrent:\n%s", soloB, concB)
	}
}
