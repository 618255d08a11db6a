package producible

import "github.com/popsim/popsize/internal/pop"

// CounterChain returns the compiled protocol in which every agent counts
// its own interactions: state i < m moves to i+1 on any interaction, and
// m is the terminated state T (absorbing). It is the canonical uniform
// dense terminating protocol of Theorem 4.1's discussion: T is
// m-1-producible from {0}, so termination happens in O(1) time from dense
// configurations no matter n. For m <= 9 a state's table id is its count.
func CounterChain(m int) *pop.Compiled[int] {
	t := make(pop.Table[int], (m+1)*(m+1))
	inc := func(i int) int { return min(i+1, m) }
	for i := 0; i <= m; i++ {
		for j := 0; j <= m; j++ {
			if i < m || j < m {
				t[pop.Pair[int]{Rec: i, Sen: j}] = pop.To(inc(i), inc(j))
			}
		}
	}
	return pop.MustCompile(t)
}
