package pop

// fenwickWall is the weight of a padding slot: larger than any total the
// engines draw from, so a descent never steps onto one. The descent
// debits each wall it passes by one; at 2⁶² no run lasts long enough to
// bring one down to a real total.
const fenwickWall = int64(1) << 62

// fenwick is a binary indexed tree over int64 weights, used by both
// multiset engines to draw agents (states weighted by their counts)
// without replacement in O(log q) per draw. Index 0..size-1 externally;
// the tree is 1-based.
//
// The tree is padded to P slots, P the least power of two ≥ size: slots
// size+1…P hold fenwickWall, so every descent runs exactly log₂ P levels
// with no bounds test, and each level is mask arithmetic on the sign of
// u − tree[next] instead of a branch: which side u falls on is a coin
// flip, so a branch there would be mispredicted at about half the levels.
type fenwick struct {
	tree []int64
	size int
	half int // P/2: the first step of every descent
}

// reset rebuilds the tree over weights in O(len(weights)). The walls are
// written only when the size changes; the descents' debits to them are
// never read back, so a tree reset at the same size keeps its walls.
func (f *fenwick) reset(weights []int64) {
	q := len(weights)
	if q != f.size || f.tree == nil {
		p := 1
		for p < q {
			p <<= 1
		}
		if cap(f.tree) < p+1 {
			f.tree = make([]int64, p+1)
		}
		f.tree = f.tree[:p+1]
		for i := q + 1; i <= p; i++ {
			f.tree[i] = fenwickWall
		}
		f.size, f.half = q, p>>1
	}
	copy(f.tree[1:], weights)
	for i := 1; i <= q; i++ {
		if p := i + (i & -i); p <= q {
			f.tree[p] += f.tree[i]
		}
	}
}

// add adds delta to the weight at index i.
func (f *fenwick) add(i int, delta int64) {
	for j := i + 1; j <= f.size; j += j & -j {
		f.tree[j] += delta
	}
}

// findAndDec maps u ∈ [0, total) to the index i whose weight interval
// contains u (probability weight(i)/total) and decrements that weight, in
// a single descent: the nodes not descended past are exactly the tree
// ancestors of i that a subsequent add(i, -1) would touch. The root slot
// P, which holds the total (or a wall), is never visited: u < total, so
// the unpadded descent would never have stepped onto it either.
func (f *fenwick) findAndDec(u int64) int {
	t := f.tree
	i := 0
	for step := f.half; step > 0; step >>= 1 {
		next := i + step
		w := t[next]
		stay := (u - w) >> 63 // -1 when u < w: node next covers the target
		u -= w &^ stay
		i += step &^ int(stay)
		t[next] += stay
	}
	return i // 0-based: we advanced past i elements
}
