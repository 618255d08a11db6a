package main

import (
	"fmt"
	"math"
	"sync"

	"github.com/popsim/popsize/internal/exactcount"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/protocol"
	"github.com/popsim/popsize/internal/sweep"
)

func newExactCountRunner(cfg protocol.Config) (*protocol.Runner, error) {
	p := exactcount.New(0)
	var statsMu sync.Mutex
	statsLines := make(map[int]string, cfg.Trials)
	return &protocol.Runner{
		N: cfg.N,
		Run: func(tr int, seed uint64) sweep.Values {
			s := p.NewEngine(cfg.N, pop.WithSeed(seed), pop.WithBackend(cfg.Backend))
			ok, at := s.RunUntil(exactcount.Terminated, 5, float64(5000*cfg.N))
			if !ok {
				cfg.Fail(fmt.Errorf("trial %d: exact count never terminated on n=%d", tr, cfg.N))
				at = math.NaN()
			}
			if cfg.CollectStats {
				st := s.Stats()
				line := fmt.Sprintf("table=%d cache=%d rule=%d seq=%d", st.TableHits, st.CacheHits, st.RuleCalls, st.SeqInteractions)
				statsMu.Lock()
				statsLines[tr] = line
				statsMu.Unlock()
			}
			return sweep.Values{"count": float64(exactcount.LeaderCount(s)), "time": at}
		},
		Format: func(v sweep.Values) string {
			return fmt.Sprintf("count=%d exact=%v time=%.0f",
				int(v["count"]), int(v["count"]) == cfg.N, v["time"])
		},
		StatsLines: func() []string {
			statsMu.Lock()
			defer statsMu.Unlock()
			lines := make([]string, 0, len(statsLines))
			for tr := 0; tr < cfg.Trials; tr++ {
				if line, have := statsLines[tr]; have {
					lines = append(lines, fmt.Sprintf("trial %d: %s", tr, line))
				}
			}
			return lines
		},
	}, nil
}
