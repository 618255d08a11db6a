package pop

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"time"
)

// within runs fn under a wall-clock bound and fails the test if it does
// not return in time. The distribution tests below draw at population
// sizes where the pre-HRUA mode walk degraded to O(stddev) — or, with
// the wrapped int64 anchor, to O(support) — and FuzzUnmarshalSnapshot
// runs engines restored from arbitrary bytes, so without a bound a
// regression reads as a hung test run rather than a failure.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("call exceeded its %v time bound", d)
	}
}

// TestHypergeometricModeAnchor checks the float64 mode anchor against
// exact integer arithmetic across a sweep that includes the overflow
// regime, and pins the N = 10¹² case where the old int64 product
// (m+1)(K+1) wrapped: it yielded −8722429 (clamped to 0, turning the
// mode walk into an O(support) scan), where the true anchor is
// 2.5·10¹¹.
func TestHypergeometricModeAnchor(t *testing.T) {
	cases := []struct{ n, k, m int64 }{
		{40, 12, 15},
		{1000, 400, 500},
		{1e6, 4e5, 5e5},
		{6e9, 3e9, 3e9},    // first wrap: (3e9+1)² > 2⁶³−1
		{1e10, 5e9, 5e9},   // fuzz-corpus overflow case
		{1e12, 5e11, 5e11}, // issue regression case
		{1e12, 1, 5e11},
		{1e12, 5e11, 1},
	}
	for _, c := range cases {
		exact := new(big.Int).Mul(big.NewInt(c.m+1), big.NewInt(c.k+1))
		exact.Quo(exact, big.NewInt(c.n+2))
		lo := max(int64(0), c.m-(c.n-c.k))
		hi := min(c.m, c.k)
		want := min(max(exact.Int64(), lo), hi)
		if got := hypergeometricMode(c.n, c.k, c.m); got != want {
			t.Errorf("hypergeometricMode(%d,%d,%d) = %d, want %d", c.n, c.k, c.m, got, want)
		}
	}
	// Pin the exact regression values: the true anchor, and the value the
	// wrapped int64 arithmetic produced (kept as a tripwire so the test
	// reads as documentation of the bug).
	N, K, m := int64(1e12), int64(5e11), int64(5e11)
	if got := hypergeometricMode(N, K, m); got != 250000000000 {
		t.Errorf("mode anchor at N=1e12: got %d, want 250000000000", got)
	}
	if wrapped := (m + 1) * (K + 1) / (N + 2); wrapped != -8722429 {
		t.Errorf("int64 wrap tripwire moved: (m+1)(K+1)/(N+2) = %d, expected -8722429", wrapped)
	}
}

// TestLightDrawWrapBoundary exercises the heavy/light predicate where the
// raw int64 products wrap. At c = k = 4·10⁹ the product c·k = 1.6·10¹⁹
// wraps to −2.4·10¹⁸, so the pre-fix comparison c·k < thresh·remPop
// reported light for a state that expects half the sample — silently
// flipping every composition chain onto the per-item path.
func TestLightDrawWrapBoundary(t *testing.T) {
	c, k, thresh, remPop := int64(4e9), int64(4e9), int64(8), int64(8e9)
	if c*k >= thresh*remPop {
		t.Fatalf("wrap tripwire moved: raw c*k = %d no longer wraps below %d", c*k, thresh*remPop)
	}
	if lightDraw(c, k, thresh, remPop) {
		t.Errorf("lightDraw(%d,%d,%d,%d) = true; 1.6e19 draws expected is not light", c, k, thresh, remPop)
	}
	cases := []struct {
		c, k, thresh, remPop int64
		want                 bool
	}{
		{3, 5, 5, 3, false},                           // exactly equal: strict <
		{3, 4, 5, 3, true},                            // one below
		{4, 4, 5, 3, false},                           // one above
		{1 << 32, 1 << 32, 1 << 32, 1<<32 + 1, true},  // high words equal, low decides
		{1 << 32, 1<<32 + 1, 1 << 32, 1 << 32, false}, // ... and the reverse
		{0, 5, 8, 10, true},                           // zero count is always light
		{5e11, 5e11, 8, 1e12, false},                  // N = 1e12 regression regime
	}
	for _, tc := range cases {
		if got := lightDraw(tc.c, tc.k, tc.thresh, tc.remPop); got != tc.want {
			t.Errorf("lightDraw(%d,%d,%d,%d) = %v, want %v",
				tc.c, tc.k, tc.thresh, tc.remPop, got, tc.want)
		}
	}
}

// TestHypergeometricChiSquare runs a chi-square goodness-of-fit test of
// the sampler against the exact pmf in every regime: the small-K product
// loop, the from-zero inverse transform, and the HRUA rejection sampler
// at small, moderate, and large populations (including past the int64
// wrap at N = 10¹⁰). Cells with exact expectation below 5 are lumped
// into the neighboring tail so the chi-square approximation holds.
func TestHypergeometricChiSquare(t *testing.T) {
	cases := []struct {
		name    string
		n, k, m int64
	}{
		{"small-K", 500, 12, 200},
		{"from-zero", 100000, 40, 10000}, // mean 4: light path
		{"hrua-small", 500, 200, 100},    // mean 40
		{"hrua-moderate", 1000000, 400000, 1000},
		{"hrua-large", 10000000000, 5000000000, 300}, // past the int64 wrap
	}
	const samples = 200000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(11, uint64(c.n)))
			// Support after hypergeometric's own reductions; the test
			// parameters all keep lo = 0 and hi small enough to tabulate.
			hi := min(c.m, c.k)
			counts := make([]int64, hi+1)
			within(t, 60*time.Second, func() {
				for i := 0; i < samples; i++ {
					counts[hypergeometric(r, c.n, c.k, c.m)]++
				}
			})
			// Exact pmf via lnChoose; then lump cells with expectation < 5.
			pmf := make([]float64, hi+1)
			lnAll := lnChoose(c.n, c.m)
			for x := int64(0); x <= hi; x++ {
				if c.m-x > c.n-c.k {
					continue // outside support
				}
				pmf[x] = math.Exp(lnChoose(c.k, x) + lnChoose(c.n-c.k, c.m-x) - lnAll)
			}
			assertChiSquare(t, counts, pmf, samples)
		})
	}
}

// assertChiSquare runs a chi-square goodness-of-fit test of the observed
// counts against the exact pmf over the same support. Cells with exact
// expectation below 5 are lumped into the next cell (the last into its
// predecessor) so the chi-square approximation holds.
func assertChiSquare(t *testing.T, counts []int64, pmf []float64, samples int) {
	t.Helper()
	type cell struct {
		obs float64
		exp float64
	}
	var cells []cell
	var acc cell
	for x := range pmf {
		acc.obs += float64(counts[x])
		acc.exp += pmf[x] * float64(samples)
		if acc.exp >= 5 {
			cells = append(cells, acc)
			acc = cell{}
		}
	}
	if acc.exp > 0 && len(cells) > 0 {
		cells[len(cells)-1].obs += acc.obs
		cells[len(cells)-1].exp += acc.exp
	}
	if len(cells) < 3 {
		t.Fatalf("degenerate binning: %d cells", len(cells))
	}
	var chi2 float64
	for _, cl := range cells {
		d := cl.obs - cl.exp
		chi2 += d * d / cl.exp
	}
	// Wilson–Hilferty 99.99% quantile of χ²(df): with fixed seeds the
	// test is deterministic, so this bounds the one-time risk of pinning
	// an unlucky seed, not a per-run flake rate.
	df := float64(len(cells) - 1)
	z := 3.719
	q := df * math.Pow(1-2/(9*df)+z*math.Sqrt(2/(9*df)), 3)
	if chi2 > q {
		t.Errorf("chi-square %.1f > %.1f (df %d)", chi2, q, len(cells)-1)
	}
}

// TestHypergeometricLargeNMoments pins the overflow regression end to
// end: at N = 10¹⁰ and N = 10¹² with K = m = N/2 the old sampler either
// walked O(stddev) ≈ √N/4 steps per draw or — once the anchor wrapped —
// O(support) ≈ N/2 steps (an effective hang), so drawing here at all
// within the time bound is the regression test. The draws are also
// checked against the exact mean and variance, accumulating x − E[X] in
// int64 so no precision is lost to the 2.5·10¹¹ offset.
func TestHypergeometricLargeNMoments(t *testing.T) {
	cases := []struct{ n int64 }{{1e10}, {1e12}}
	const samples = 20000
	for _, c := range cases {
		K, m := c.n/2, c.n/2
		p := 0.5
		mean := float64(m) * p // exactly mK/N = N/4, integral
		variance := mean * (1 - p) * float64(c.n-m) / float64(c.n-1)
		sd := math.Sqrt(variance)
		offset := int64(mean)
		var sum int64
		var sq float64
		r := rand.New(rand.NewPCG(13, uint64(c.n)))
		within(t, 60*time.Second, func() {
			for i := 0; i < samples; i++ {
				d := hypergeometric(r, c.n, K, m) - offset
				sum += d
				sq += float64(d) * float64(d)
			}
		})
		gotMean := float64(sum) / samples
		gotVar := sq/samples - gotMean*gotMean
		if tol := 4 * sd / math.Sqrt(samples); math.Abs(gotMean) > tol {
			t.Errorf("N=%d: mean offset %.1f, want 0 ± %.1f", c.n, gotMean, tol)
		}
		if math.Abs(gotVar-variance) > 0.1*variance {
			t.Errorf("N=%d: var %.4g, want %.4g ± 10%%", c.n, gotVar, variance)
		}
	}
}

// TestHypergeometricGolden pins the sampler's exact output sequence for a
// fixed PCG seed on both paths. Any change to the sampler's uniform
// consumption — light-path recurrence or HRUA acceptance — shifts these
// values; that is intentional: the engines' byte-identity contracts are
// within one binary, and a deliberate sampler change must regenerate the
// pins alongside the engine goldens.
func TestHypergeometricGolden(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 43))
	cases := []struct {
		n, k, m int64
		want    []int64
	}{
		{1000, 30, 100, goldenLight},
		{1000000, 400000, 1000, goldenHRUA},
		{1e12, 5e11, 5e11, goldenHRUALarge},
	}
	for _, c := range cases {
		got := make([]int64, len(c.want))
		for i := range got {
			got[i] = hypergeometric(r, c.n, c.k, c.m)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Hyp(%d,%d,%d) draw %d: got %d, want %d (full: %v)",
					c.n, c.k, c.m, i, got[i], c.want[i], got)
			}
		}
	}
}

var (
	goldenLight     = []int64{2, 3, 3, 5, 1, 5, 3, 6}
	goldenHRUA      = []int64{388, 377, 403, 405, 378, 417, 387, 369}
	goldenHRUALarge = []int64{
		249999810877, 250000057412, 250000176822, 250000092110,
		250000132544, 250000374156, 250000004821, 249999636083,
	}
)

// BenchmarkHypergeometric measures ns/draw at fixed K = m = N/2 across
// three decades of standard deviation (σ ≈ √N/4). The HRUA sampler's
// cost must stay flat; the pre-fix mode walk scaled linearly in σ. It
// also reports uniforms/draw, counted as source words (one per Float64):
// two per HRUA trial, so 2 over the acceptance rate.
func BenchmarkHypergeometric(b *testing.B) {
	cases := []struct {
		name string
		n    int64
	}{
		{"std1e2", 160000},         // σ = 10²
		{"std1e4", 1600000000},     // σ = 10⁴
		{"std1e6", 16000000000000}, // σ = 10⁶
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cs := &countingSource{src: rand.NewPCG(1, uint64(c.n))}
			r := rand.New(cs)
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += hypergeometric(r, c.n, c.n/2, c.n/2)
			}
			benchSink = sink
			b.ReportMetric(float64(cs.words)/float64(b.N), "uniforms/draw")
		})
	}
}

var benchSink int64
