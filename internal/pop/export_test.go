package pop

import (
	"runtime"
	"sync"
)

// RunTrials runs fn(trial) for trial = 0..trials-1 across up to workers
// goroutines (GOMAXPROCS if workers <= 0) and returns the results in trial
// order. Engines are not safe for concurrent use, so fn must construct its
// own engine per trial, seeded through TrialSeed so distinct experiments
// sharing a base seed never reuse a random stream:
//
//	times := pop.RunTrials(100, 0, func(tr int) float64 {
//	    e := p.NewEngine(n, pop.WithSeed(pop.TrialSeed(base, "convergence", tr)))
//	    _, at := e.RunUntil(pred, 1, budget)
//	    return at
//	})
func RunTrials[T any](trials, workers int, fn func(trial int) T) []T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, trials)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < trials; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return out
}
