package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// collisionFreeRunRef is the O(ℓ) run-length walk runLengths replaced,
// kept verbatim as the oracle it must match exactly: after t collision-
// free interactions the next is collision-free with probability
// (n−2t)(n−2t−1)/(n(n−1)). It consumes exactly one Float64 from rng.
func collisionFreeRunRef(rng *rand.Rand, n, maxPairs int64) (ell int64, collided bool) {
	return collisionFreeRunFrom(rng.Float64(), n, maxPairs)
}

// collisionFreeRunFrom is the reference loop with the uniform supplied.
func collisionFreeRunFrom(u float64, n, maxPairs int64) (ell int64, collided bool) {
	surv := 1.0
	invNN := 1 / (float64(n) * float64(n-1))
	for ell < maxPairs {
		a := float64(n - 2*ell)
		next := surv * a * (a - 1) * invNN
		if next <= u {
			return ell, true
		}
		surv = next
		ell++
	}
	return ell, false
}

// wordSource is a rand.Source that always returns w, so Float64 on it
// yields the grid point (w mod 2⁵³)/2⁵³.
type wordSource uint64

func (w wordSource) Uint64() uint64 { return uint64(w) }

// checkDraw draws once from r on a counted source and compares the result
// and the word count with the reference loop on the same stream.
func checkDraw(t *testing.T, r *runLengths, src, ref rand.Source, n, maxPairs int64) {
	t.Helper()
	cs := &countingSource{src: src}
	ell, collided := r.draw(rand.New(cs), n, maxPairs)
	wantEll, wantCollided := collisionFreeRunRef(rand.New(ref), n, maxPairs)
	if ell != wantEll || collided != wantCollided || cs.words != 1 {
		t.Fatalf("n=%d cap=%d: got (%d, %v) in %d words, loop gives (%d, %v) in 1",
			n, maxPairs, ell, collided, cs.words, wantEll, wantCollided)
	}
}

// TestRunLengthsMatchLoop checks the checkpointed sampler against the
// reference loop across populations from the smallest batched size to
// 10¹² and one above runTableMaxN, caps at and around the stride and the production caps, seeded
// draws, u = 0 (the table grows to the cap), and u at a checkpoint and
// its float64 and 2⁻⁵³-grid neighbours. One table serves every n in an
// interleaved order, so the first draw at each n runs the reset path.
func TestRunLengthsMatchLoop(t *testing.T) {
	ns := []int64{8, 9, 10, 11, 17, 64, 65, 129, 1e3, 1 << 14, 1e6, 1e8, 1e9, 1e10, 1e12, 1 << 60}
	capsFor := func(n int64) []int64 {
		return []int64{1, 2, 63, 64, 65, min(maxBatchPairs, n/3+1), min(denseMaxPairs, n/3+1)}
	}
	var r runLengths
	for round := uint64(0); round < 3; round++ {
		for _, n := range ns {
			caps := capsFor(n)
			for _, maxPairs := range caps {
				seed := round<<40 ^ uint64(n)<<8 ^ uint64(maxPairs)
				for i := uint64(0); i < 12; i++ {
					checkDraw(t, &r, rand.NewPCG(seed, i), rand.NewPCG(seed, i), n, maxPairs)
				}
			}
			if round > 0 {
				continue // the u = 0 walks below are subnormal, hence slow
			}
			for _, maxPairs := range caps[len(caps)-2:] {
				checkDraw(t, &r, wordSource(0), wordSource(0), n, maxPairs)
			}
			if n > runTableMaxN {
				if len(r.ck) != 1 {
					t.Fatalf("n=%d above runTableMaxN built %d checkpoints", n, len(r.ck))
				}
				continue
			}
			maxPairs := caps[len(caps)-1]
			for _, j := range []int{1, len(r.ck) / 2, len(r.ck) - 1} {
				ck := r.ck[j]
				if ck <= 0 {
					continue
				}
				for _, u := range []float64{ck, math.Nextafter(ck, 0), math.Nextafter(ck, 1)} {
					ell, collided := r.run(u, n, maxPairs)
					wantEll, wantCollided := collisionFreeRunFrom(u, n, maxPairs)
					if ell != wantEll || collided != wantCollided {
						t.Fatalf("n=%d cap=%d u=%g: got (%d, %v), loop gives (%d, %v)",
							n, maxPairs, u, ell, collided, wantEll, wantCollided)
					}
				}
				w := wordSource(ck * (1 << 53))
				for _, w := range []wordSource{w, w + 1} {
					checkDraw(t, &r, w, w, n, maxPairs)
				}
			}
		}
	}
}

// TestRunLengthChiSquare is a goodness-of-fit test of the sampled run
// length against its exact law: with S_t = Π_{s<t} (n−2s)(n−2s−1)/(n(n−1))
// the probability of survival past t steps, P(ℓ = t) = S_t − S_{t+1}
// below the cap. S_t is accumulated in log space with log1p and the cap
// n/3+1 carries negligible mass at these sizes, so the cap cell is left
// to the tail lumping.
func TestRunLengthChiSquare(t *testing.T) {
	const samples = 200000
	for _, n := range []int64{1e3, 1e4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			maxPairs := n/3 + 1
			var runs runLengths
			rng := rand.New(rand.NewPCG(17, uint64(n)))
			counts := make([]int64, maxPairs+1)
			for i := 0; i < samples; i++ {
				ell, _ := runs.draw(rng, n, maxPairs)
				counts[ell]++
			}
			pmf := make([]float64, maxPairs+1)
			nn := float64(n) * float64(n-1)
			var logS float64
			for s := int64(0); s < maxPairs; s++ {
				hazard := 2 * float64(s) * float64(2*n-2*s-1) / nn // 1 − step factor
				pmf[s] = math.Exp(logS) * hazard
				logS += math.Log1p(-hazard)
			}
			pmf[maxPairs] = math.Exp(logS)
			assertChiSquare(t, counts, pmf, samples)
		})
	}
}

// BenchmarkBatchLength compares the reference walk with the checkpointed
// table at the production dense cap. The table is warm after the first
// few draws, so the table rows measure the steady-state search plus at
// most one stride.
func BenchmarkBatchLength(b *testing.B) {
	for _, n := range []int64{1 << 14, 1e8, 1e9} {
		maxPairs := min(denseMaxPairs, n/3+1)
		b.Run(fmt.Sprintf("oracle/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, uint64(n)))
			var sink int64
			for i := 0; i < b.N; i++ {
				ell, _ := collisionFreeRunRef(rng, n, maxPairs)
				sink += ell
			}
			benchSink = sink
		})
		b.Run(fmt.Sprintf("table/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, uint64(n)))
			var runs runLengths
			var sink int64
			for i := 0; i < b.N; i++ {
				ell, _ := runs.draw(rng, n, maxPairs)
				sink += ell
			}
			benchSink = sink
		})
	}
}
