// Package reach implements the Section 2.1 correctness notions for
// finite protocols given as compiled transition tables (pop.Compiled) by
// exhaustive configuration-space search: reachability, *stable
// correctness* (every reachable configuration is correct), and *silence*
// (no transition can change any agent's state — the stronger notion the
// paper contrasts with termination, citing [13]).
//
// Population protocols' configuration spaces are multisets, so for the
// small populations where exhaustion is feasible (the paper's proofs reason
// about exactly such finite witnesses, e.g. the execution E in Theorem
// 4.1's proof) configurations are count vectors and the search is BFS over
// them. The package complements internal/producible: producibility
// over-approximates what can appear; reachability decides it exactly for
// small n.
package reach

import (
	"fmt"
	"strings"

	"github.com/popsim/popsize/internal/pop"
)

// Config is a configuration vector over a compiled table's canonical ids:
// Config[s] is the count of agents in state s (an index into
// Compiled.States()).
type Config []int

// N returns the population size of the configuration.
func (c Config) N() int {
	n := 0
	for _, k := range c {
		n += k
	}
	return n
}

// Key returns a map key for the configuration.
func (c Config) Key() string {
	var b strings.Builder
	for i, k := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", k)
	}
	return b.String()
}

// clone copies the configuration.
func (c Config) clone() Config {
	d := make(Config, len(c))
	copy(d, c)
	return d
}

// Successors returns every configuration reachable from c by one
// transition (any branch of any applicable ordered pair; identity
// branches leave c unchanged and are not listed). The receiver/sender
// order matters for asymmetric transition relations.
func Successors[S comparable](p *pop.Compiled[S], c Config) []Config {
	var out []Config
	seen := map[string]bool{}
	for rec := range c {
		for sen := range c {
			if !applicable(c, rec, sen) {
				continue
			}
			for _, br := range p.Branches(rec, sen) {
				if br.Rec == rec && br.Sen == sen {
					continue
				}
				d := c.clone()
				d[rec]--
				d[sen]--
				d[br.Rec]++
				d[br.Sen]++
				if k := d.Key(); !seen[k] {
					seen[k] = true
					out = append(out, d)
				}
			}
		}
	}
	return out
}

func applicable(c Config, rec, sen int) bool {
	if rec == sen {
		return c[rec] >= 2
	}
	return c[rec] >= 1 && c[sen] >= 1
}

// Reachable returns the set of configurations reachable from c (including
// c), keyed by Config.Key, stopping once limit configurations have been
// discovered. truncated reports whether the limit was hit.
func Reachable[S comparable](p *pop.Compiled[S], c Config, limit int) (set map[string]Config, truncated bool) {
	set = map[string]Config{c.Key(): c}
	queue := []Config{c}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range Successors(p, cur) {
			k := nxt.Key()
			if _, ok := set[k]; ok {
				continue
			}
			if len(set) >= limit {
				return set, true
			}
			set[k] = nxt
			queue = append(queue, nxt)
		}
	}
	return set, false
}

// Silent reports whether the configuration is silent: no transition can
// change any agent's state (Section 4's explicit contrast with
// "terminated").
func Silent[S comparable](p *pop.Compiled[S], c Config) bool {
	for rec := range c {
		for sen := range c {
			if !applicable(c, rec, sen) {
				continue
			}
			for _, br := range p.Branches(rec, sen) {
				if br.Rec != rec || br.Sen != sen {
					return false // a state-changing transition applies
				}
			}
		}
	}
	return true
}

// StablyCorrect reports whether c is stably correct with respect to the
// given correctness predicate: c and every configuration reachable from it
// are correct (Section 2.1). truncated reports an inconclusive search (the
// reachable set exceeded limit); in that case the boolean is the verdict
// over the explored prefix.
func StablyCorrect[S comparable](p *pop.Compiled[S], c Config, correct func(Config) bool, limit int) (stable, truncated bool) {
	set, trunc := Reachable(p, c, limit)
	for _, cfg := range set {
		if !correct(cfg) {
			return false, trunc
		}
	}
	return true, trunc
}

// CanReach reports whether some configuration satisfying pred is reachable
// from c (within limit explored configurations).
func CanReach[S comparable](p *pop.Compiled[S], c Config, pred func(Config) bool, limit int) (found, truncated bool) {
	set, trunc := Reachable(p, c, limit)
	for _, cfg := range set {
		if pred(cfg) {
			return true, trunc
		}
	}
	return false, trunc
}
