package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"github.com/popsim/popsize/internal/pop"
)

// engineCounts is the union of the multiset engines' execution counters,
// read through their exported Stats methods.
type engineCounts struct {
	interactions int64
	batches      int64
	batched      int64 // interactions simulated inside batches
	pairCells    int64 // nonzero pair-matrix cells (dense only)
	compactions  int64
	fallbacks    int64 // batch → sequential switches (batch only)
	delegations  int64 // dense → batch switches (dense only)
	cacheHits    int64
	ruleCalls    int64
	tableHits    int64
}

// countsOf reads e's counters; the sequential engine has none beyond its
// interaction count.
func countsOf[S comparable](e pop.Engine[S]) engineCounts {
	c := engineCounts{interactions: e.Interactions()}
	switch v := e.(type) {
	case *pop.BatchSim[S]:
		st := v.Stats()
		c.batches, c.batched, c.compactions, c.fallbacks = st.Batches, st.BatchedInteractions, st.Compactions, st.Fallbacks
		c.cacheHits, c.ruleCalls, c.tableHits = st.CacheHits, st.RuleCalls, st.TableHits
	case *pop.DenseSim[S]:
		st := v.Stats()
		c.batches, c.batched, c.pairCells, c.compactions, c.delegations = st.Batches, st.BatchedInteractions, st.PairCells, st.Compactions, st.Delegations
		c.cacheHits, c.ruleCalls, c.tableHits = st.CacheHits, st.RuleCalls, st.TableHits
	}
	return c
}

// plus returns c + sign·b, counter by counter: sign 1 sums two ops,
// sign -1 takes the counts accumulated since the reading b.
func (c engineCounts) plus(b engineCounts, sign int64) engineCounts {
	return engineCounts{
		interactions: c.interactions + sign*b.interactions,
		batches:      c.batches + sign*b.batches,
		batched:      c.batched + sign*b.batched,
		pairCells:    c.pairCells + sign*b.pairCells,
		compactions:  c.compactions + sign*b.compactions,
		fallbacks:    c.fallbacks + sign*b.fallbacks,
		delegations:  c.delegations + sign*b.delegations,
		cacheHits:    c.cacheHits + sign*b.cacheHits,
		ruleCalls:    c.ruleCalls + sign*b.ruleCalls,
		tableHits:    c.tableHits + sign*b.tableHits,
	}
}

// det renders the counters as the deterministic fingerprint of one op:
// for a given seed they must repeat exactly, traced or not.
func (c engineCounts) det(into map[string]string) {
	for k, v := range map[string]int64{
		"pop.interactions": c.interactions, "pop.batches": c.batches, "pop.pair_cells": c.pairCells,
		"pop.compactions": c.compactions, "pop.fallbacks": c.fallbacks, "pop.delegations": c.delegations,
		"resolve.cache_hits": c.cacheHits, "resolve.rule_calls": c.ruleCalls, "resolve.table_hits": c.tableHits,
	} {
		into[k] = strconv.FormatInt(v, 10)
	}
}

// countLayers sets the per-layer metrics that are pure functions of op
// 0's counters, so they repeat exactly for a seed.
func (o *outcome) countLayers(c engineCounts) {
	transitions := float64(c.cacheHits + c.ruleCalls + c.tableHits)
	tBase := fmt.Sprintf("%d transitions resolved", c.cacheHits+c.ruleCalls+c.tableHits)
	o.setLayer("pop.batches", float64(c.batches), "")
	o.setLayer("pop.interactions_per_batch", ratio(float64(c.batched), float64(c.batches)), fmt.Sprintf("%d batches", c.batches))
	o.setLayer("pop.pair_cells_per_batch", ratio(float64(c.pairCells), float64(c.batches)), fmt.Sprintf("%d batches", c.batches))
	o.setLayer("pop.compactions", float64(c.compactions), "")
	o.setLayer("pop.fallbacks", float64(c.fallbacks), "")
	o.setLayer("pop.delegations", float64(c.delegations), "")
	o.setLayer("pop.batched_frac", ratio(float64(c.batched), float64(c.interactions)), fmt.Sprintf("%d interactions", c.interactions))
	o.setLayer("resolve.rule_calls_per_kint", ratio(1000*float64(c.ruleCalls), float64(c.interactions)), fmt.Sprintf("%d interactions", c.interactions))
	o.setLayer("resolve.cache_hit_ratio", ratio(float64(c.cacheHits), transitions), tBase)
	o.setLayer("resolve.table_hit_ratio", ratio(float64(c.tableHits), transitions), tBase)
}

// engineOp folds one op's engine counters into the run; op 0's become
// the deterministic fingerprint and the count metrics.
func (o *outcome) engineOp(i int, c engineCounts) {
	o.counts = o.counts.plus(c, 1)
	if i == 0 {
		c.det(o.det)
		o.countLayers(c)
	}
}

// timeLayers sets the engine timing metrics of a traced run from the
// spans: the engine's self time (its calls minus the predicate and probe
// calls nested in them) against the counters of every traced op.
func (o *outcome) timeLayers(spans []span) {
	self := selfTimes(spans)
	busy := layerSelf(spans, self, "pop.Run")
	all := o.counts
	o.setLayer("pop.busy_s_per_op", ratio(busy, float64(o.attempted)), fmt.Sprintf("%d ops", o.attempted))
	o.setLayer("pop.ns_per_interaction", ratio(busy*1e9, float64(all.interactions)), fmt.Sprintf("%d interactions", all.interactions))
	o.setLayer("pop.us_per_batch", ratio(busy*1e6, float64(all.batches)), fmt.Sprintf("%d batches", all.batches))
	o.setLayer("pop.live_states_p50", median(o.live), fmt.Sprintf("%d samples", len(o.live)))
	o.setLayer("pop.construct_s", median(durations(spans, "pop.NewEngine")), "")
}

// probeLive records e's live-state count in a traced run, as a trace.*
// span so that its cost counts as tracing overhead.
func probeLive[S comparable](c runConfig, o *outcome, e pop.Engine[S], op string, parent int) {
	if c.tr == nil {
		return
	}
	id := c.tr.begin("trace.LiveStates", op, parent)
	if l, ok := e.(interface{ LiveStates() int }); ok {
		o.live = append(o.live, float64(l.LiveStates()))
	}
	c.tr.end(id)
}

// checkedRun is what runChecked saw of one run.
type checkedRun struct {
	ok     bool
	at     float64 // parallel time at the end of the run
	secs   float64 // wall time of the run
	inPred float64 // seconds spent in the predicate
	checks int
}

// runChecked is e.RunUntil(pred, every, maxTime) for op. It samples the
// wall time between consecutive checks — how long a caller waits for the
// next look at the result — as latency, and in a traced run records the
// run, every check (a span named predName) and a live-state probe per
// check.
func runChecked[S comparable](c runConfig, o *outcome, op string, parent int, e pop.Engine[S],
	predName string, pred func(pop.Engine[S]) bool, every, maxTime float64) checkedRun {
	var r checkedRun
	var run int
	var last time.Time
	check := func(e pop.Engine[S]) bool {
		now := time.Now()
		if r.checks > 0 {
			o.latency = append(o.latency, now.Sub(last).Seconds())
		}
		r.checks++
		last = now
		probeLive(c, o, e, op, run)
		id := c.tr.begin(predName, op, run)
		t := time.Now()
		ok := pred(e)
		r.inPred += time.Since(t).Seconds()
		c.tr.end(id)
		return ok
	}
	start := time.Now()
	run = c.tr.begin("pop.RunUntil", op, parent)
	r.ok, r.at = e.RunUntil(check, every, maxTime)
	c.tr.end(run)
	r.secs = time.Since(start).Seconds()
	return r
}

// forkLayer sets pop.fork_speedup: it runs t time units from one start on
// the splitter path with one worker and with GOMAXPROCS workers (what
// auto parallelism picks at the dense workloads' sizes), which must take
// the same trajectory, and divides the first's wall time by the second's.
func forkLayer[S comparable](o *outcome, build func(par int) pop.Engine[S], t float64) {
	var secs [2]float64
	var counts [2]engineCounts
	workers := runtime.GOMAXPROCS(0)
	for i, par := range []int{1, workers} {
		e := build(par)
		start := time.Now()
		e.RunTime(t)
		secs[i] = time.Since(start).Seconds()
		counts[i] = countsOf(e)
	}
	o.attempted++
	if counts[0] != counts[1] {
		o.fail(fmt.Errorf("one and %d splitter workers diverged: %+v vs %+v", workers, counts[0], counts[1]))
	}
	o.setLayer("pop.fork_speedup", secs[0]/secs[1], fmt.Sprintf("1 vs %d workers over %g time units", workers, t))
}
