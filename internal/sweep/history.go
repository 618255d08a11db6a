package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/popsim/popsize/internal/pop"
)

// HistoryRecord is one sampled trajectory point as a JSONL line: the
// engine's parallel time, population size and interaction count, plus the
// full configuration as a state→count map. Config reuses Values, so state
// counts share the record stream's NaN-safe encoding and sorted-key
// determinism (counts are integral, but the uniform float encoding keeps
// one decoder for both streams).
type HistoryRecord struct {
	Time         float64 `json:"t"`
	N            int     `json:"n"`
	Interactions int64   `json:"interactions"`
	Config       Values  `json:"config"`
}

// HistoryRecords converts an engine-level sampled trajectory into the
// serializable record form, rendering each state with %v (protocol states
// print compactly and unambiguously — the map key must be a string).
func HistoryRecords[S comparable](samples []pop.HistorySample[S]) []HistoryRecord {
	out := make([]HistoryRecord, len(samples))
	for i, s := range samples {
		cfg := make(Values, len(s.Counts))
		for st, c := range s.Counts {
			cfg[fmt.Sprintf("%v", st)] += float64(c)
		}
		out[i] = HistoryRecord{
			Time:         s.Time,
			N:            s.N,
			Interactions: s.Interactions,
			Config:       cfg,
		}
	}
	return out
}

// WriteHistory streams records as JSONL. The encoding is deterministic
// (struct field order plus Values' sorted keys), so equal trajectories
// produce byte-identical files.
func WriteHistory(w io.Writer, recs []HistoryRecord) error {
	var buf []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("sweep: marshaling history record at t=%g: %w", r.Time, err)
		}
		buf = append(append(buf, line...), '\n')
	}
	_, err := w.Write(buf)
	return err
}

// ReadHistory parses a JSONL trajectory stream written by WriteHistory.
// Like ReadRecords it consumes only the newline-terminated prefix and
// reports an unterminated tail as ErrTornTail alongside the valid records.
func ReadHistory(r io.Reader) ([]HistoryRecord, error) {
	var recs []HistoryRecord
	_, torn, err := terminatedLines(r, func(line []byte) error {
		var rec HistoryRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("sweep: corrupt history record %q: %w", line, err)
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return recs, err
	}
	if torn {
		return recs, ErrTornTail
	}
	return recs, nil
}

// SortedConfig returns a history record's configuration as (state, count)
// pairs in sorted state order — the deterministic iteration order reports
// are built from.
func (r HistoryRecord) SortedConfig() (states []string, counts []float64) {
	states = make([]string, 0, len(r.Config))
	for s := range r.Config {
		states = append(states, s)
	}
	sort.Strings(states)
	counts = make([]float64, len(states))
	for i, s := range states {
		counts[i] = r.Config[s]
	}
	return states, counts
}
