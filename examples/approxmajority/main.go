// Approximate majority at a billion agents: the 3-state
// Angluin–Aspnes–Eisenstat dynamics written as a 4-line declarative
// transition table (pop.Table), compiled once, and run on the dense
// count-vector backend with the declared-table bypass — every interaction
// resolves from the compiled table, the rule closure is never called, and
// the engine's memory is the 3-entry count vector rather than a 10⁹-agent
// array. A sampled history digests the trajectory: the blank state rises
// as opposed opinions annihilate, then the initial 54% majority sweeps the
// population in Θ(log n) parallel time.
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/protocol"
	"github.com/popsim/popsize/internal/stats"
	"github.com/popsim/popsize/internal/sweep"
)

func main() {
	const n = 1_000_000_000
	c := protocol.AMCompiled() // the registry's shared compiled table

	// A 54/46 split over opinions {1: A, -1: B}; state 0 is blank.
	a := (int64(n)*27 + 49) / 50
	e := pop.NewEngineFromCounts(
		[]int{1, -1}, []int64{a, int64(n) - a}, c.Rule(),
		pop.WithSeed(1), pop.WithBackend(pop.Dense), c.Option())

	consensus := func(e pop.Engine[int]) bool {
		first := true
		opinion := 0
		return e.All(func(s int) bool {
			if first {
				first, opinion = false, s
			}
			return s != 0 && s == opinion
		})
	}

	hist := pop.NewHistory[int](2)
	ok, at := hist.RunUntil(e, consensus, 0.5, 32*math.Log2(n)+64)
	if !ok {
		log.Fatalf("no consensus within the time bound (t=%.1f)", at)
	}

	winner := "B (−1)"
	if e.Count(func(s int) bool { return s == 1 }) == e.N() {
		winner = "A (+1)"
	}
	fmt.Printf("n=%d (dense backend): consensus on %s at parallel time %.2f = %.2f·log2(n)\n",
		n, winner, at, at/math.Log2(n))
	st := e.Stats()
	fmt.Printf("transition resolution: table=%d cache=%d rule=%d seq=%d (declared table covers every interaction)\n",
		st.TableHits, st.CacheHits, st.RuleCalls, st.SeqInteractions)

	pts := make([]stats.TrajPoint, 0, 32)
	for _, rec := range sweep.HistoryRecords(hist.Samples()) {
		live, top := stats.TrajDigest(rec.Config, rec.N)
		pts = append(pts, stats.TrajPoint{
			Time: rec.Time, N: rec.N, Interactions: rec.Interactions,
			Live: live, TopShare: top,
		})
	}
	fmt.Println()
	table := stats.TrajectoryTable("Trajectory (sampled every 2 time units)", pts)
	fmt.Print(table.Markdown())
}
