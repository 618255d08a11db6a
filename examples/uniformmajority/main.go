// Uniform majority: Theorem 4.1 forbids composing a terminating size
// estimate with a nonuniform majority protocol, so the paper composes via
// restarts instead (Section 1.1). This example wires the nonuniform
// cancel/split majority protocol into the composition framework and runs
// it with NO knowledge of n: the weak size estimate, the stage clock, and
// the restart scheme uniformize it.
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/popsim/popsize/internal/compose"
	"github.com/popsim/popsize/internal/majority"
	"github.com/popsim/popsize/internal/pop"
)

func main() {
	const n = 1000
	for _, plusFrac := range []float64{0.65, 0.45, 0.52} {
		plus := int(plusFrac * n)
		opinions := make([]int8, n)
		for i := range opinions {
			if i < plus {
				opinions[i] = 1
			} else {
				opinions[i] = -1
			}
		}
		truth := "+1"
		if plus < n-plus {
			truth = "-1"
		}

		p := compose.MustNew(compose.Config{F: 16}, majority.Downstream(opinions))
		sim := p.NewEngine(n, pop.WithSeed(7))
		ok, at := sim.RunUntil(p.Converged, 10, 5e5)
		if !ok {
			log.Fatalf("composition did not converge")
		}
		sim.RunTime(20 * math.Log2(n)) // let outputs circulate

		pl, mi, und := majority.Outputs(sim)
		fmt.Printf("split %+d/%-4d → outputs +%d/−%d (undecided %d) after %.0f time units; truth %s\n",
			plus, n-plus, pl, mi, und, at, truth)
	}
}
