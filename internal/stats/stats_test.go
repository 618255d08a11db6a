package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"single", []float64{4}, Summary{N: 1, Mean: 4, Min: 4, Max: 4, Median: 4, Q10: 4, Q90: 4}},
		{"pair", []float64{2, 4}, Summary{N: 2, Mean: 3, Std: math.Sqrt2, Min: 2, Max: 4, Median: 3, Q10: 2.2, Q90: 3.8}},
		{"triple", []float64{1, 2, 3}, Summary{N: 3, Mean: 2, Std: 1, Min: 1, Max: 3, Median: 2, Q10: 1.2, Q90: 2.8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.in)
			if got.N != tt.want.N || !close(got.Mean, tt.want.Mean) || !close(got.Std, tt.want.Std) ||
				!close(got.Median, tt.want.Median) || !close(got.Q10, tt.want.Q10) || !close(got.Q90, tt.want.Q90) {
				t.Errorf("Summarize(%v) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

// TestSummarizeLargeMean is the regression test for the catastrophic-
// cancellation bug: the one-pass Σx²/n − mean² formula computes variance
// as the difference of two ~1e30 quantities, which collapses to 0 for a
// sample like 1e15+{0,1,2} whose true sample variance is exactly 1. The
// two-pass formula must recover it.
func TestSummarizeLargeMean(t *testing.T) {
	const base = 1e15
	got := Summarize([]float64{base, base + 1, base + 2})
	if !close(got.Std, 1) {
		t.Errorf("Std of 1e15+{0,1,2} = %v, want 1 (one-pass variance cancels to 0)", got.Std)
	}
	if got.Mean != base+1 {
		t.Errorf("Mean = %v, want %v", got.Mean, base+1)
	}
}

// TestSummarizeSingleStd: one observation has no spread estimate; Std must
// be 0 (the n−1 denominator is degenerate), not NaN.
func TestSummarizeSingleStd(t *testing.T) {
	if got := Summarize([]float64{42}); got.Std != 0 || got.N != 1 {
		t.Errorf("Summarize([42]) = %+v, want Std 0", got)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		// Interior interpolation, exact index hits, and out-of-range q
		// clamping to the extremes.
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
		{-0.5, 1}, {1.5, 5}, {0.125, 1.5},
	}
	for _, tt := range tests {
		if got := Quantile(sorted, tt.q); !close(got, tt.want) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) did not return NaN")
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Errorf("Quantile([7], %v) = %v, want 7", q, got)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow("1", "x,y")
	md := tb.Markdown()
	if !strings.Contains(md, "### T") || !strings.Contains(md, "| 1 | x,y |") {
		t.Errorf("markdown wrong:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `1,"x,y"`) {
		t.Errorf("CSV quoting wrong:\n%s", csv)
	}
}

func TestFormatters(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {1234, "1234"}, {12.34, "12.3"}, {1.2345, "1.234"},
	}
	for _, tt := range tests {
		if got := F(tt.in); got != tt.want {
			t.Errorf("F(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
	if got := I(42); got != "42" {
		t.Errorf("I(42) = %q", got)
	}
}

func TestASCIIPlotLogX(t *testing.T) {
	pts := []Point{{X: 100, Y: 10}, {X: 10000, Y: 100}}
	out := ASCIIPlotLogX("churn", pts, 20, 5)
	marks := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") {
			marks += strings.Count(line, "o")
		}
	}
	if !strings.Contains(out, "churn") || marks != 2 {
		t.Errorf("plot wrong (marks=%d):\n%s", marks, out)
	}
	if got := ASCIIPlotLogX("empty", nil, 20, 5); !strings.Contains(got, "(no data)") {
		t.Errorf("empty plot = %q", got)
	}
}

func close(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestWeightedMean: the mean weights each value by its count, is 0 with
// no weight, and is bit-identical for every arrival order of the pairs.
func TestWeightedMean(t *testing.T) {
	if got := WeightedMean(nil); got != 0 {
		t.Errorf("WeightedMean(nil) = %v, want 0", got)
	}
	if got := WeightedMean([]Weighted{{V: 2, W: 1}, {V: 5, W: 3}}); got != 4.25 {
		t.Errorf("WeightedMean = %v, want 4.25", got)
	}
	ws := []Weighted{{0.1, 7}, {1e16, 1}, {0.3, 2}, {-1e16, 1}, {0.7, 5}}
	want := WeightedMean(append([]Weighted(nil), ws...))
	for i := range ws {
		rot := append(append([]Weighted(nil), ws[i:]...), ws[:i]...)
		if got := WeightedMean(rot); got != want {
			t.Errorf("rotation %d: WeightedMean = %v, want %v (order-dependent)", i, got, want)
		}
	}
}
