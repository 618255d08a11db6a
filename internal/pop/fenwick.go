package pop

// fenwick is a binary indexed tree over int64 weights, used by both
// multiset engines to draw agents (states weighted by their counts)
// without replacement in O(log q) per draw. Index 0..size-1 externally;
// the tree is 1-based.
type fenwick struct {
	tree    []int64
	size    int
	maxStep int // largest power of two <= size
}

// reset rebuilds the tree over weights in O(len(weights)).
func (f *fenwick) reset(weights []int64) {
	f.size = len(weights)
	if cap(f.tree) < f.size+1 {
		f.tree = make([]int64, f.size+1)
	} else {
		f.tree = f.tree[:f.size+1]
		for i := range f.tree {
			f.tree[i] = 0
		}
	}
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

// add adds delta to the weight at index i.
func (f *fenwick) add(i int, delta int64) {
	for j := i + 1; j <= f.size; j += j & -j {
		f.tree[j] += delta
	}
}

// findAndDec maps u ∈ [0, total) to the index i whose weight interval
// contains u (probability weight(i)/total) and decrements that weight, in
// a single descent: the nodes not descended past are exactly the tree
// ancestors of i that a subsequent add(i, -1) would touch.
func (f *fenwick) findAndDec(u int64) int {
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
	return i // 0-based: we advanced past i elements
}
