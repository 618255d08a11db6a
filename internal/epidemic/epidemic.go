// Package epidemic implements one-way epidemics — the max-propagation
// primitive underlying every stage of the size-estimation protocol — and
// the timing analysis of Lemma A.1 (full population) and Corollaries
// 3.4/3.5 (subpopulation).
//
// An epidemic is the transition i, j → max(i, j), max(i, j) restricted to
// one direction: the receiver adopts the sender's value when larger. In
// O(log n) parallel time the maximum reaches every agent w.h.p.
package epidemic

import (
	"math/rand/v2"

	"github.com/popsim/popsize/internal/pop"
)

// State is an epidemic agent: a value being max-propagated and a
// subpopulation membership flag (for Corollary 3.4 experiments, only
// members exchange values; non-members are inert spectators that still
// consume scheduler picks).
type State struct {
	Val    int
	Member bool
}

// Rule propagates the maximum value between two member agents. It ignores
// its random source: epidemics are deterministic.
func Rule(rec, sen State, _ *rand.Rand) (State, State) {
	if rec.Member && sen.Member {
		switch {
		case rec.Val < sen.Val:
			rec.Val = sen.Val
		case sen.Val < rec.Val:
			sen.Val = rec.Val
		}
	}
	return rec, sen
}

// Table is the binary-valued epidemic written as a declarative
// transition table — the domain NewEngine and NewSubpopEngine construct,
// where values are 0 (susceptible) and 1 (infected). Member pairs holding
// different values adopt the maximum; every other pair, including the
// spectator self-transitions declared explicitly so the non-member states
// join the table's state set, is a null transition. Compiling this table
// yields a rule byte-identical in effect to Rule on that domain
// (table_test.go pins this on all three backends).
func Table() pop.Table[State] {
	m0, m1 := State{Val: 0, Member: true}, State{Val: 1, Member: true}
	s0, s1 := State{Val: 0, Member: false}, State{Val: 1, Member: false}
	return pop.Table[State]{
		{Rec: m0, Sen: m1}: pop.To(m1, m1),
		{Rec: m1, Sen: m0}: pop.To(m1, m1),
		{Rec: s0, Sen: s0}: pop.To(s0, s0),
		{Rec: s1, Sen: s1}: pop.To(s1, s1),
	}
}

// Compiled returns the compiled form of Table, shared across callers —
// pass Compiled().Option() to an engine running Compiled().Rule() to
// enable the declared-table bypass.
func Compiled() *pop.Compiled[State] { return compiled }

var compiled = pop.MustCompile(Table())

// NewEngine constructs a population of n agents of which the first
// infected hold value 1 and the rest 0, all members; the backend is chosen
// with pop.WithBackend.
func NewEngine(n, infected int, opts ...pop.Option) pop.Engine[State] {
	return pop.NewEngine(n, func(i int, _ *rand.Rand) State {
		return State{Val: boolToInt(i < infected), Member: true}
	}, Rule, opts...)
}

// NewSubpopEngine constructs a population of n agents of which only the
// first members belong to the epidemic subpopulation; the first infected
// of those hold value 1. It models Corollary 3.4's epidemic among a = n/c
// agents; the backend is chosen with pop.WithBackend.
func NewSubpopEngine(n, members, infected int, opts ...pop.Option) pop.Engine[State] {
	if infected > members || members > n {
		panic("epidemic: need infected <= members <= n")
	}
	return pop.NewEngine(n, func(i int, _ *rand.Rand) State {
		return State{Val: boolToInt(i < infected), Member: i < members}
	}, Rule, opts...)
}

// Done reports whether every member agent holds the maximum (value 1 for
// populations built by NewEngine/NewSubpopEngine).
func Done(s pop.Engine[State]) bool {
	return s.All(func(a State) bool { return !a.Member || a.Val == 1 })
}

// CompletionTime runs the epidemic to completion and returns the parallel
// time it took. maxTime bounds the run; ok is false on timeout.
func CompletionTime(s pop.Engine[State], maxTime float64) (t float64, ok bool) {
	done, at := s.RunUntil(Done, 0.25, maxTime)
	return at, done
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
