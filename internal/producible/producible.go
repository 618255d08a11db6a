// Package producible implements the m-ρ-producibility machinery of
// Section 4 over compiled transition tables (pop.Compiled): the PROD_ρ
// operator, the Λ^m_ρ closure, and an empirical check of the
// timer/density Lemma 4.2 (all states producible via m transitions of
// rate >= ρ reach count δn within one unit of parallel time, starting
// from any sufficiently large α-dense configuration).
//
// Prod, Closure and ClosureDepth work on a table's canonical ids (indices
// into Compiled.States()); CheckLemma42 takes and reports states. A
// transition's rate is its branch weight over the entry's total weight
// (Compiled.Branches).
//
// This machinery is what makes Theorem 4.1 bite: if a uniform protocol can
// terminate at all from a dense configuration, its terminated states are
// m-ρ-producible for constants m, ρ, so termination happens in O(1) time —
// no protocol needing ω(1) time can signal completion.
package producible

import (
	"github.com/popsim/popsize/internal/pop"
)

// Prod returns PROD_ρ(Γ): the set of states producible by a single
// transition with rate >= rho, assuming only states in gamma are present.
// Identity branches produce nothing new and are skipped.
func Prod[S comparable](c *pop.Compiled[S], rho float64, gamma map[int]bool) map[int]bool {
	out := make(map[int]bool)
	for a, inA := range gamma {
		for b, inB := range gamma {
			if !inA || !inB {
				continue
			}
			brs := c.Branches(a, b)
			var total int64
			for _, br := range brs {
				total += br.W
			}
			for _, br := range brs {
				if (br.Rec != a || br.Sen != b) && float64(br.W)/float64(total) >= rho {
					out[br.Rec] = true
					out[br.Sen] = true
				}
			}
		}
	}
	return out
}

// Closure returns the chain Λ⁰_ρ ⊆ Λ¹_ρ ⊆ ... ⊆ Λ^m_ρ of m-ρ-producible
// state sets starting from the states in initial. The result has m+1
// entries; entry i is Λ^i_ρ.
func Closure[S comparable](c *pop.Compiled[S], rho float64, initial []int, m int) []map[int]bool {
	cur := setOf(initial)
	chain := []map[int]bool{copySet(cur)}
	for i := 0; i < m; i++ {
		cur = step(c, rho, cur)
		chain = append(chain, copySet(cur))
	}
	return chain
}

// ClosureDepth returns the smallest m with Λ^m_ρ = Λ^(m+1)_ρ (the closure
// saturates; for finite protocols it always does) along with the final set.
func ClosureDepth[S comparable](c *pop.Compiled[S], rho float64, initial []int) (int, map[int]bool) {
	cur := setOf(initial)
	for m := 0; ; m++ {
		next := step(c, rho, cur)
		if len(next) == len(cur) {
			return m, cur
		}
		cur = next
	}
}

// step returns Λ ∪ PROD_ρ(Λ) as a new set.
func step[S comparable](c *pop.Compiled[S], rho float64, cur map[int]bool) map[int]bool {
	next := copySet(cur)
	for s := range Prod(c, rho, cur) {
		next[s] = true
	}
	return next
}

// DenseConfig returns the multiset of an n-agent configuration in which
// every listed state has count >= ⌊αn⌋ (the first state absorbs the
// remainder), as the states and their counts; it panics if
// α·len(states) > 1.
func DenseConfig[S comparable](states []S, alpha float64, n int) ([]S, []int64) {
	per := int(alpha * float64(n))
	if per*len(states) > n {
		panic("producible: alpha too large for state count")
	}
	counts := make([]int64, len(states))
	for i := range counts {
		counts[i] = int64(per)
	}
	counts[0] += int64(n - per*len(states))
	return states, counts
}

// MinCountReport is the outcome of one Lemma 4.2 empirical check.
type MinCountReport[S comparable] struct {
	// MinFraction is min over s ∈ Λ^m_ρ of count(s)/n at time 1.
	MinFraction float64
	// Counts maps each state in Λ^m_ρ to its count at time 1.
	Counts map[S]int
}

// CheckLemma42 runs the table from the configuration holding counts[i]
// agents in states[i] for one unit of parallel time and reports the
// minimum density over all states in Λ^m_ρ. Lemma 4.2 asserts this is
// >= δ for some constant δ > 0 w.h.p., independent of n. The engine is
// built by pop.NewEngineFromCounts with the table bypass attached; opts
// (a backend, say) follow the seed and the table.
func CheckLemma42[S comparable](c *pop.Compiled[S], states []S, counts []int64, rho float64, m int, seed uint64, opts ...pop.Option) MinCountReport[S] {
	declared := c.States()
	id := make(map[S]int, len(declared))
	for i, s := range declared {
		id[s] = i
	}
	var initial []int
	for i, s := range states {
		if t, ok := id[s]; ok && counts[i] > 0 {
			initial = append(initial, t)
		}
	}
	chain := Closure(c, rho, initial, m)
	lam := chain[len(chain)-1]

	opts = append([]pop.Option{pop.WithSeed(seed), c.Option()}, opts...)
	e := pop.NewEngineFromCounts(states, counts, c.Rule(), opts...)
	e.RunTime(1)

	got := e.Counts()
	rep := MinCountReport[S]{MinFraction: 1, Counts: make(map[S]int, len(lam))}
	n := float64(e.N())
	for t := range lam {
		k := got[declared[t]]
		rep.Counts[declared[t]] = k
		if f := float64(k) / n; f < rep.MinFraction {
			rep.MinFraction = f
		}
	}
	return rep
}

func setOf(states []int) map[int]bool {
	s := make(map[int]bool, len(states))
	for _, k := range states {
		s[k] = true
	}
	return s
}

func copySet(s map[int]bool) map[int]bool {
	c := make(map[int]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}
