// Package stats provides the small statistics and reporting toolkit used
// by the experiment harness: summaries, quantiles, markdown/CSV tables,
// an ASCII log-x scatter plot for the Figure 2 reproduction, and a
// bounded-parallelism trial runner.
package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	Median, Q10, Q90 float64
}

// Summarize computes a Summary of xs (which it copies and sorts). Std is
// the sample standard deviation (Bessel-corrected, n−1 denominator; 0 for
// fewer than two values), computed two-pass as Σ(x−mean)² — the textbook
// one-pass Σx²/n − mean² cancels catastrophically when the mean dwarfs
// the spread (e.g. convergence times near 1e15 with unit variance collapse
// to exactly 0) and that shortcut is deliberately avoided here.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	n := float64(len(s))
	mean := sum / n
	variance := 0.0
	if len(s) > 1 {
		sq := 0.0
		for _, x := range s {
			d := x - mean
			sq += d * d
		}
		variance = sq / (n - 1)
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Min:    s[0],
		Max:    s[len(s)-1],
		Median: Quantile(s, 0.5),
		Q10:    Quantile(s, 0.1),
		Q90:    Quantile(s, 0.9),
	}
}

// Weighted is a value V carried by W agents (a state's count).
type Weighted struct {
	V float64
	W int
}

// WeightedMean returns Σ W·V / Σ W, or 0 if the weights sum to 0. It
// sorts ws in place and sums in that order, so the floating-point result
// does not depend on the order ws arrived in (a configuration's Counts
// iterate in map order).
func WeightedMean(ws []Weighted) float64 {
	slices.SortFunc(ws, func(x, y Weighted) int {
		return cmp.Or(cmp.Compare(x.V, y.V), cmp.Compare(x.W, y.W))
	})
	sum, total := 0.0, 0
	for _, w := range ws {
		sum += w.V * float64(w.W)
		total += w.W
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the sorted sample by
// linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
