package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refFenwick is the unpadded tree with the branchy descent that fenwick
// replaced: the reference its branch-free descent must match index for
// index.
type refFenwick struct {
	tree    []int64
	size    int
	maxStep int // largest power of two <= size
}

func (f *refFenwick) reset(weights []int64) {
	f.size = len(weights)
	f.tree = make([]int64, f.size+1)
	copy(f.tree[1:], weights)
	for i := 1; i <= f.size; i++ {
		if p := i + (i & -i); p <= f.size {
			f.tree[p] += f.tree[i]
		}
	}
	f.maxStep = 1
	for f.maxStep<<1 <= f.size {
		f.maxStep <<= 1
	}
}

func (f *refFenwick) add(i int, delta int64) {
	for j := i + 1; j <= f.size; j += j & -j {
		f.tree[j] += delta
	}
}

func (f *refFenwick) refFindAndDec(u int64) int {
	i := 0
	for step := f.maxStep; step > 0; step >>= 1 {
		if next := i + step; next <= f.size {
			if f.tree[next] <= u {
				u -= f.tree[next]
				i = next
			} else {
				f.tree[next]--
			}
		}
	}
	return i
}

// TestFenwickDrainsExactly draws every unit of weight without replacement
// and verifies each index is returned exactly as often as its weight.
func TestFenwickDrainsExactly(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	weights := []int64{3, 0, 7, 1, 0, 12, 5}
	var f fenwick
	f.reset(weights)
	total := int64(0)
	for _, w := range weights {
		total += w
	}
	got := make([]int64, len(weights))
	for rem := total; rem > 0; rem-- {
		got[f.findAndDec(r.Int64N(rem))]++
	}
	for i, w := range weights {
		if got[i] != w {
			t.Errorf("index %d drawn %d times, weight %d", i, got[i], w)
		}
	}
}

// TestFenwickMatchesWeights is the weighted-sampler frequency check: with
// replacement restored between draws, empirical frequencies must match the
// weight distribution.
func TestFenwickMatchesWeights(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 3))
	weights := []int64{10, 90, 0, 400, 500}
	var f fenwick
	total := int64(1000)
	const draws = 500000
	counts := make([]int64, len(weights))
	f.reset(weights)
	for i := 0; i < draws; i++ {
		idx := f.findAndDec(r.Int64N(total))
		counts[idx]++
		f.add(idx, 1) // restore: sample with replacement
	}
	for i, w := range weights {
		p := float64(w) / float64(total)
		got := float64(counts[i]) / draws
		se := 5 * math.Sqrt(p*(1-p)/draws)
		if math.Abs(got-p) > se+1e-9 {
			t.Errorf("index %d: frequency %.5f, want %.5f ± %.5f", i, got, p, se)
		}
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[2])
	}
}

// TestFenwickFindBoundaries pins the find contract: u just below a
// cumulative boundary selects the earlier index, u at the boundary the
// next.
func TestFenwickFindBoundaries(t *testing.T) {
	weights := []int64{2, 3, 5}
	var f fenwick
	for u, want := range map[int64]int{0: 0, 1: 0, 2: 1, 4: 1, 5: 2, 9: 2} {
		f.reset(weights)
		if got := f.findAndDec(u); got != want {
			t.Errorf("find(%d) = %d, want %d", u, got, want)
		}
	}
}

// TestFenwickMatchesReference drives the padded branch-free tree and the
// reference in lock step at every size from 1 to 300 — each power of two
// and its neighbours included — over weights with zeros, mixing pairRow's
// add(i, −k) debits with draws over the whole tree and draws offset past
// a walked prefix, as pairRow's tail makes them. One fenwick serves every
// size, growing then shrinking, so the walls are rewritten on each size
// change and kept across a same-size reset.
func TestFenwickMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 5))
	var f fenwick
	var sizes []int
	for q := 1; q <= 300; q++ {
		sizes = append(sizes, q)
	}
	for q := 300; q >= 1; q -= 7 {
		sizes = append(sizes, q, q)
	}
	for _, q := range sizes {
		w := make([]int64, q)
		var total int64
		for i := range w {
			if r.IntN(4) > 0 {
				w[i] = 1 + r.Int64N(40)
			}
			total += w[i]
		}
		var ref refFenwick
		f.reset(w)
		ref.reset(w)
		for op := 0; op < 3*q && total > 0; op++ {
			var u int64
			switch op % 4 {
			case 0: // a pairRow heavy cell: debit k agents of one state
				i := r.IntN(q)
				k := r.Int64N(w[i] + 1)
				f.add(i, -k)
				ref.add(i, -k)
				w[i] -= k
				total -= k
				continue
			case 1: // a pairRow tail draw: offset past the walked prefix
				j := r.IntN(q)
				var prefix int64
				for _, c := range w[:j] {
					prefix += c
				}
				if total == prefix {
					continue
				}
				u = prefix + r.Int64N(total-prefix)
			default:
				u = r.Int64N(total)
			}
			got, want := f.findAndDec(u), ref.refFindAndDec(u)
			if got != want {
				t.Fatalf("q=%d op %d: findAndDec(%d) = %d, reference %d (weights %v)", q, op, u, got, want, w)
			}
			w[got]--
			total--
		}
	}
}

// BenchmarkFenwickDraw times one descent per draw at q live states, over
// weights with a quarter of the classes empty (dead states in the counts
// vector) and uniforms precomputed, so ns/draw is the descent alone.
// Weights near 2³² keep b.N draws from emptying any class.
func BenchmarkFenwickDraw(b *testing.B) {
	for _, q := range []int{8, 77, 300, 4100, 5000} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			r := rand.New(rand.NewPCG(uint64(q), 6))
			w := make([]int64, q)
			var total int64
			for i := range w {
				if r.IntN(4) > 0 {
					w[i] = 1<<31 + r.Int64N(1<<31)
				}
				total += w[i]
			}
			us := make([]int64, 1<<12)
			for i := range us {
				us[i] = r.Int64N(total - 1<<34)
			}
			var f fenwick
			f.reset(w)
			sink := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += f.findAndDec(us[i&(len(us)-1)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
			if sink < 0 {
				b.Fatal("negative index")
			}
		})
	}
}
