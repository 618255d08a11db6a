// The exact-law oracle: a forward solver for the distribution of a
// compiled table's configuration under the uniformly random pairwise
// scheduler, and one table-driven chi-square test of every engine path
// against it.
package pop

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
)

// lawStates bounds the tables the oracle solves: a configuration is a
// count vector over at most this many table ids.
const lawStates = 4

// config is a configuration: counts per table id (States() order).
type config [lawStates]int32

// law is a probability distribution over configurations.
type law map[config]float64

// lawRun returns the law after k interactions from p, a law over
// populations of n agents: each interaction picks the ordered pair (r, s)
// with probability c_r·(c_s − [r = s]) / (n(n − 1)) and then one of its
// Branches with probability W/total. The chain is solved on the
// configurations reachable from p's support, as a sparse transition
// matrix applied k times.
func lawRun(tbl *Compiled[int], p law, n float64, k int64) law {
	q := tbl.NumStates()
	type edge struct {
		to int
		p  float64
	}
	idx := make(map[config]int, len(p))
	var cfgs []config
	at := func(c config) int {
		i, ok := idx[c]
		if !ok {
			i = len(cfgs)
			idx[c] = i
			cfgs = append(cfgs, c)
		}
		return i
	}
	for c := range p {
		at(c)
	}
	var rows [][]edge
	for i := 0; i < len(cfgs); i++ {
		c := cfgs[i]
		var row []edge
		for r := 0; r < q; r++ {
			for s := 0; s < q; s++ {
				cs := c[s]
				if r == s {
					cs--
				}
				if c[r] == 0 || cs <= 0 {
					continue
				}
				brs := tbl.Branches(r, s)
				var total int64
				for _, br := range brs {
					total += br.W
				}
				for _, br := range brs {
					next := c
					next[r]--
					next[s]--
					next[br.Rec]++
					next[br.Sen]++
					j := at(next)
					e := slices.IndexFunc(row, func(e edge) bool { return e.to == j })
					if e < 0 {
						e = len(row)
						row = append(row, edge{to: j})
					}
					row[e].p += float64(c[r]) * float64(cs) / (n * (n - 1)) * float64(br.W) / float64(total)
				}
			}
		}
		rows = append(rows, row)
	}
	cur, next := make([]float64, len(cfgs)), make([]float64, len(cfgs))
	for c, pr := range p {
		cur[idx[c]] = pr
	}
	for ; k > 0; k-- {
		clear(next)
		for i, pr := range cur {
			if pr != 0 {
				for _, e := range rows[i] {
					next[e.to] += pr * e.p
				}
			}
		}
		cur, next = next, cur
	}
	out := make(law, len(cfgs))
	for i, pr := range cur {
		if pr > 0 {
			out[cfgs[i]] = pr
		}
	}
	return out
}

// lawLeave returns the law after k of p's n agents leave uniformly at
// random, as k successive removals of one uniformly random agent: a
// uniform k-subset, which the engines draw as one multivariate
// hypergeometric sample.
func lawLeave(p law, n float64, k int) law {
	for ; k > 0; k, n = k-1, n-1 {
		next := make(law, len(p))
		for c, pr := range p {
			for i, x := range c {
				if x > 0 {
					d := c
					d[i]--
					next[d] += pr * float64(x) / n
				}
			}
		}
		p = next
	}
	return p
}

// lawOp is one step of an oracle script, applied alike to the engine and
// to the law: run interactions, a leave or join (into a table id) event,
// or a check that compares the engine's configuration with the law.
type lawOp struct {
	run               int64
	leave, join, into int
	check             bool
}

// lawProbe is what one trial saw of its engine: its stats, interactions
// and applied churn events, and its batch commits by kind through the
// batchEvents hook. fenwick counts slot batches drawn slot by slot (ℓ
// below the live states).
type lawProbe struct {
	Stats
	interactions, churns int64
	collided, fenwick    int64
}

// lawTrials is the number of independent runs per oracle case. The race
// detector slows the engines about tenfold, so race builds run a fifth as
// many: the test stays exact, with less power.
const lawTrials = 20000

// lawCase is one engine path under the oracle: an engine of backend be
// with opts is built from init (counts per table id of tbl), under
// shrunkSplitter when tree is set, and driven through script in each of
// lawTrials independent runs, by Step alone when step is set. ran
// reports whether a trial took the path under test; at least one must.
type lawCase struct {
	name       string
	tbl        *Compiled[int]
	init       []int64
	script     []lawOp
	be         Backend
	opts       []Option
	step, tree bool
	ran        func(p lawProbe) bool
}

// engine builds the case's engine with its backend's constructor and
// returns, for a multiset engine, its core for the path probes.
func (lc *lawCase) engine(seed uint64) (Engine[int], *multiset[int]) {
	states, rule := lc.tbl.States(), lc.tbl.Rule()
	opts := append([]Option{WithSeed(seed)}, lc.opts...)
	switch lc.be {
	case Dense:
		d := NewDenseFromCounts(states, lc.init, rule, opts...)
		return d, &d.multiset
	case Batched:
		b := NewBatchFromCounts(states, lc.init, rule, opts...)
		return b, &b.multiset
	}
	return NewEngineFromCounts(states, lc.init, rule, append(opts, WithBackend(lc.be))...), nil
}

// trial runs one engine through the case's script and returns its
// configuration at every check, in table ids, with what it saw.
func (lc *lawCase) trial(seed uint64) ([]config, lawProbe) {
	e, m := lc.engine(seed)
	var pr lawProbe
	if m != nil {
		live := m.live
		m.batchEvents = func(ell int, collided bool) {
			if collided {
				pr.collided++
			}
			if ell < live {
				pr.fenwick++
			}
			live = m.live
		}
	}
	var got []config
	for _, op := range lc.script {
		n := e.N()
		switch {
		case op.run > 0 && lc.step:
			for k := op.run; k > 0; k-- {
				e.Step()
			}
		case op.run > 0:
			e.Run(op.run)
		case op.leave > 0:
			e.RemoveAgents(op.leave)
			n -= op.leave
		case op.join > 0:
			e.AddAgents(lc.tbl.States()[op.into], op.join)
			n += op.join
		case op.check:
			var c config
			for s, k := range e.Counts() {
				c[lc.tbl.index[s]] = int32(k)
			}
			got = append(got, c)
		}
		if op.leave+op.join > 0 && e.N() == n {
			pr.churns++
		}
	}
	pr.Stats, pr.interactions = e.Stats(), e.Interactions()
	return got, pr
}

// laws returns the exact law at every check of the case's script.
func (lc *lawCase) laws() []law {
	var c config
	n := 0.0
	for i, k := range lc.init {
		c[i], n = int32(k), n+float64(k)
	}
	p := law{c: 1}
	var out []law
	for _, op := range lc.script {
		switch {
		case op.run > 0:
			p = lawRun(lc.tbl, p, n, op.run)
		case op.leave > 0:
			p, n = lawLeave(p, n, op.leave), n-float64(op.leave)
		case op.join > 0:
			joined := make(law, len(p))
			for c, pr := range p {
				c[op.into] += int32(op.join)
				joined[c] = pr
			}
			p, n = joined, n+float64(op.join)
		case op.check:
			out = append(out, p)
		}
	}
	return out
}

// assertLaw chi-squares the observed configurations against the exact
// law, cells in decreasing probability so that assertChiSquare lumps the
// light tail together. A configuration the law gives probability zero
// fails outright.
func assertLaw(t *testing.T, p law, seen map[config]int64, samples int) {
	t.Helper()
	for c, k := range seen {
		if p[c] == 0 {
			t.Errorf("configuration %v observed %d times, impossible under the exact law", c, k)
		}
	}
	keys := make([]config, 0, len(p))
	for c := range p {
		keys = append(keys, c)
	}
	slices.SortFunc(keys, func(a, b config) int {
		return cmp.Or(cmp.Compare(p[b], p[a]), slices.Compare(a[:], b[:]))
	})
	counts, pmf := make([]int64, len(keys)), make([]float64, len(keys))
	for i, c := range keys {
		counts[i], pmf[i] = seen[c], p[c]
	}
	assertChiSquare(t, counts, pmf, samples)
}

// TestEngineLawOracle checks every engine path against the exact law of
// its configuration (see lawCases). Cases sharing a table, initial
// configuration and script share one solve.
func TestEngineLawOracle(t *testing.T) {
	trials := lawTrials
	if raceEnabled {
		trials /= 5
	}
	solved := make(map[string][]law)
	for _, lc := range lawCases() {
		t.Run(lc.name, func(t *testing.T) {
			key := fmt.Sprintf("%p %v %v", lc.tbl, lc.init, lc.script)
			if solved[key] == nil {
				solved[key] = lc.laws()
			}
			if lc.tree {
				defer shrunkSplitter()()
			}
			var ran atomic.Int64
			got := RunTrials(trials, 0, func(tr int) []config {
				got, pr := lc.trial(uint64(tr)*2654435761 + 1)
				if lc.ran(pr) {
					ran.Add(1)
				}
				return got
			})
			if ran.Load() == 0 {
				t.Fatal("no trial took the path under test")
			}
			for i, p := range solved[key] {
				seen := make(map[config]int64)
				for _, g := range got {
					seen[g[i]]++
				}
				assertLaw(t, p, seen, trials)
			}
		})
	}
}

// cycleTable is four-state cyclic dominance: a receiver adopts the state
// of a sender one step ahead of it, so all four states stay live for
// long stretches.
func cycleTable() Table[int] {
	t := Table[int]{}
	for s := 0; s < 4; s++ {
		t[Pair[int]{Rec: s, Sen: (s + 1) % 4}] = To((s+1)%4, (s+1)%4)
	}
	return t
}

// lawCases lists the engine paths under the oracle. Approximate majority
// (amTable) at n = 300 runs batches of ℓ ≈ 11 with heavy and light
// pairing cells and a collision step; n = 100 and thresholds of 2 live
// states drive the mode switches; the coin table's 3:1 Choose entry is
// drawn by the rule on every backend. The churn tree cases draw their
// removals through the split composition (removeSample over three
// states, split at two classes).
func lawCases() []lawCase {
	am, coin, cycle := MustCompile(amTable()), MustCompile(coinTable()), MustCompile(cycleTable())
	amInit, small, coinInit := []int64{90, 60, 150}, []int64{40, 20, 40}, []int64{100, 100, 100} // B, U, A
	run, long := []lawOp{{run: 300}, {check: true}}, []lawOp{{run: 800}, {check: true}}
	churn := []lawOp{{run: 150}, {check: true}, {leave: 60}, {check: true}, {join: 30, into: 1}, {run: 150}, {check: true}}
	batched := func(p lawProbe) bool { return p.Batches > 0 && p.collided > 0 }
	seqRan := func(p lawProbe) bool { return p.SeqInteractions > 0 }
	churned := func(p lawProbe) bool { return p.churns == 2 }
	return []lawCase{
		{name: "seq", tbl: am, init: amInit, script: run, be: Sequential, ran: seqRan},
		{name: "step", tbl: am, init: amInit, script: run, be: Batched, step: true,
			ran: func(p lawProbe) bool { return p.interactions > 0 && p.Batches == 0 }},
		{name: "batch/leaf", tbl: am, init: amInit, script: run, be: Batched,
			ran: func(p lawProbe) bool { return batched(p) && p.fenwick < p.Batches }},
		{name: "batch/fenwick", tbl: cycle, init: []int64{16, 16, 16, 16}, script: []lawOp{{run: 128}, {check: true}},
			be: Batched, ran: func(p lawProbe) bool { return batched(p) && p.fenwick > p.Batches/4 }},
		{name: "dense/leaf", tbl: am, init: amInit, script: run, be: Dense,
			ran: func(p lawProbe) bool { return batched(p) && p.Delegations == 0 }},
		{name: "choose/seq", tbl: coin, init: coinInit, script: run, be: Sequential, ran: seqRan},
		{name: "choose/batch", tbl: coin, init: coinInit, script: run, be: Batched, opts: []Option{coin.Option()},
			ran: func(p lawProbe) bool { return batched(p) && p.RuleCalls > 0 }},
		{name: "choose/dense", tbl: coin, init: coinInit, script: run, be: Dense, opts: []Option{coin.Option()},
			ran: func(p lawProbe) bool { return batched(p) && p.RuleCalls > 0 }},
		{name: "batch/fallback", tbl: am, init: small, script: long, be: Batched, opts: []Option{WithBatchThreshold(2)},
			ran: func(p lawProbe) bool { return p.Fallbacks > 0 && p.Reentries > 0 }},
		{name: "dense/delegated", tbl: am, init: small, script: long, be: Dense, opts: []Option{WithDenseThreshold(2)},
			ran: func(p lawProbe) bool { return p.Delegations > 0 && p.DenseReentries > 0 }},
		{name: "dense/delegated-fallback", tbl: am, init: small, script: long, be: Dense,
			opts: []Option{WithDenseThreshold(2), WithBatchThreshold(2)},
			ran:  func(p lawProbe) bool { return p.Delegations > 0 && p.Fallbacks > 0 && p.DenseReentries > 0 }},
		{name: "churn/seq", tbl: am, init: amInit, script: churn, be: Sequential, ran: churned},
		{name: "churn/batch/leaf", tbl: am, init: amInit, script: churn, be: Batched, ran: churned},
		{name: "churn/batch/tree", tbl: am, init: amInit, script: churn, be: Batched, tree: true, ran: churned},
		{name: "churn/dense/leaf", tbl: am, init: amInit, script: churn, be: Dense, ran: churned},
		{name: "churn/dense/tree", tbl: am, init: amInit, script: churn, be: Dense, tree: true, ran: churned},
	}
}
