// Versioned engine snapshot/restore.
//
// A Snapshot captures everything an engine needs to resume a run exactly
// where it left off: the configuration (agent array or interned state
// counts), the interaction count, the per-segment parallel-time
// accounting, the rng stream state (rand.PCG's binary form — one PCG
// underlies both the engine's own draws and the rule stream, so a single
// blob covers both), and the engine's mode with
// its re-check countdown: the multiset engines' agent-array fallback and
// DenseSim's delegation to slot batches. Both multiset engines snapshot
// their shared core the same way, so a delegated DenseSim is a flat
// multiset snapshot (counts, or agents while in the fallback) plus its
// delegation fields. Restore rebuilds an engine from a snapshot such that
// restore-then-run is byte-identical to the uninterrupted run, for every
// backend, including snapshots taken mid-fallback
// and mid-delegation.
//
// # What is deliberately NOT captured
//
// The deterministic-transition cache, its generation counter, and the
// execution statistics (Stats) are excluded. The cache
// holds only zero-randomness transitions, so a post-restore cold-cache
// miss re-derives exactly the outputs a hit would have returned without
// consuming the rule stream — cache state can never influence the
// trajectory, only the hit/call statistics. Excluding it keeps snapshots
// small (a table of up to 1 MiB would dwarf a polylog(n)-state
// configuration) and makes the byte-identity guarantee independent of
// cache history. The interning table, by contrast, IS captured in full —
// including entries whose count has dropped to zero — because the
// compaction trigger reads the table length, so dropping dead entries
// would change when future compactions fire.
//
// # Versioning and compatibility
//
// Snapshots are JSON (stable field order; the state type S must be
// JSON-marshalable, which every protocol state in this repository is) and
// carry a format version. UnmarshalSnapshot and Restore reject unknown
// versions and malformed shapes; within a version, a snapshot is portable
// across machines but pins the backend and —
// implicitly, through the rng stream — the exact rule. Restoring with a
// different rule is undetectable and yields a well-formed but meaningless
// run, so callers must pair snapshots with the protocol that produced
// them.
package pop

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
)

// SnapshotVersion is the current snapshot format version. Restore accepts
// only snapshots carrying it; the version bumps whenever a field changes
// meaning or a new field stops being optional. Version 2 flattened
// DenseSim's delegated mode into the multiset fields; version 3 dropped
// the parallelism class, since every worker target takes one trajectory.
const SnapshotVersion = 3

// Snapshot is the versioned, serializable full state of a simulation
// engine. Fields beyond the common header apply only to the backends
// noted; Marshal renders the whole value as JSON with a stable field
// order, so equal engine states produce byte-identical snapshots.
type Snapshot[S comparable] struct {
	// Version is the snapshot format version (SnapshotVersion).
	Version int `json:"version"`
	// Backend is the engine kind ("seq", "batch" or "dense").
	Backend string `json:"backend"`
	// N is the population size.
	N int `json:"n"`
	// Interactions is the number of interactions executed so far.
	Interactions int64 `json:"interactions"`
	// TimeBase and SegStart carry the per-segment parallel-time
	// accounting (see Engine.Time): time accumulated over completed churn
	// segments, and the interaction count at the current segment's start.
	TimeBase float64 `json:"time_base"`
	SegStart int64   `json:"seg_start"`
	// RNG is the rand.PCG stream state (MarshalBinary form). The multiset
	// engines' rule stream shares the same PCG, so one blob restores both.
	RNG []byte `json:"rng"`

	// Agents is the explicit agent array: the sequential engine's
	// configuration, and a multiset engine's while in its agent-array
	// fallback (where the counts vector is stale and therefore omitted).
	Agents []S `json:"agents,omitempty"`
	// TrackStates and Seen carry the sequential engine's distinct-state
	// tracking: Seen holds every state observed so far, sorted by its
	// JSON encoding so equal sets serialize identically.
	TrackStates bool `json:"track_states,omitempty"`
	Seen        []S  `json:"seen,omitempty"`
	// ICounts carries the sequential engine's per-agent interaction
	// counts (WithInteractionCounts), parallel to Agents.
	ICounts []int64 `json:"icounts,omitempty"`

	// States and Counts are the multiset engines' parallel interning
	// tables, in id order and complete — including dead (zero-count)
	// entries, which the compaction trigger depends on. Counts is omitted
	// while the engine is in its agent-array fallback (stale).
	States []S     `json:"states,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
	// Distinct is the number of distinct states ever observed.
	Distinct int `json:"distinct,omitempty"`
	// QMax is the live-state threshold of the agent-array fallback.
	QMax int `json:"qmax,omitempty"`

	// SeqMode and SeqRecheck capture the multiset engines' agent-array
	// fallback: mode flag and interactions remaining until the next
	// re-entry check.
	SeqMode    bool  `json:"seq_mode,omitempty"`
	SeqRecheck int64 `json:"seq_recheck,omitempty"`

	// DenseSim extras: the delegation cutoff and its WithDenseThreshold
	// override (0 = rescale with n on churn), the delegation flag, and
	// the interactions remaining until the next re-entry check.
	Cutoff          int   `json:"cutoff,omitempty"`
	CutoffOverride  int   `json:"cutoff_override,omitempty"`
	Delegated       bool  `json:"delegated,omitempty"`
	DelegateRecheck int64 `json:"delegate_recheck,omitempty"`
}

// Marshal renders the snapshot as JSON. Field order is the struct order
// and Seen is pre-sorted, so equal engine states marshal to identical
// bytes — the property the round-trip tests and the CI byte-compare rely
// on.
func (s *Snapshot[S]) Marshal() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("pop: marshaling snapshot: %w", err)
	}
	return b, nil
}

// UnmarshalSnapshot parses and validates a snapshot produced by Marshal.
func UnmarshalSnapshot[S comparable](data []byte) (*Snapshot[S], error) {
	var s Snapshot[S]
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("pop: unmarshaling snapshot: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WriteSnapshotFile marshals the snapshot to path (0644).
func WriteSnapshotFile[S comparable](path string, s *Snapshot[S]) error {
	b, err := s.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadSnapshotFile reads and validates a snapshot written by
// WriteSnapshotFile.
func ReadSnapshotFile[S comparable](path string) (*Snapshot[S], error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalSnapshot[S](b)
}

// validate checks the version and per-backend shape invariants shared by
// UnmarshalSnapshot and Restore.
func (s *Snapshot[S]) validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("pop: snapshot version %d is not supported (this build reads version %d)",
			s.Version, SnapshotVersion)
	}
	if s.N < 2 {
		return fmt.Errorf("pop: snapshot population size %d < 2", s.N)
	}
	if len(s.RNG) == 0 {
		return fmt.Errorf("pop: snapshot has no rng state")
	}
	// Counters and clocks never run negative. The per-backend re-entry
	// countdowns below matter most: Run subtracts a countdown from its
	// remaining work, so a negative one made it run more than asked.
	if s.Interactions < 0 || s.SegStart < 0 || !(s.TimeBase >= 0) {
		return fmt.Errorf("pop: snapshot has negative interactions %d, seg_start %d or time_base %g",
			s.Interactions, s.SegStart, s.TimeBase)
	}
	switch s.Backend {
	case Sequential.String():
		if len(s.Agents) != s.N {
			return fmt.Errorf("pop: sequential snapshot has %d agents for n=%d", len(s.Agents), s.N)
		}
		if s.ICounts != nil && len(s.ICounts) != s.N {
			return fmt.Errorf("pop: sequential snapshot has %d interaction counts for n=%d", len(s.ICounts), s.N)
		}
		if s.TrackStates && len(s.Seen) == 0 {
			return fmt.Errorf("pop: sequential snapshot tracks states but carries none")
		}
	case Batched.String(), Dense.String():
		if s.SeqMode && len(s.Agents) != s.N {
			return fmt.Errorf("pop: %s snapshot in the agent-array fallback has %d agents for n=%d",
				s.Backend, len(s.Agents), s.N)
		}
		if err := s.validateTables(!s.SeqMode); err != nil {
			return err
		}
		if s.SeqRecheck < 0 || s.DelegateRecheck < 0 {
			return fmt.Errorf("pop: %s snapshot has a negative re-entry budget (seq_recheck %d, delegate_recheck %d)",
				s.Backend, s.SeqRecheck, s.DelegateRecheck)
		}
		if s.QMax <= 0 {
			return fmt.Errorf("pop: %s snapshot has no live-state threshold", s.Backend)
		}
		if s.Backend != Dense.String() {
			break
		}
		if s.Cutoff <= 0 {
			return fmt.Errorf("pop: dense snapshot has no delegation cutoff")
		}
		if s.SeqMode && !s.Delegated {
			return fmt.Errorf("pop: dense snapshot is in the agent-array fallback without being delegated")
		}
	default:
		return fmt.Errorf("pop: snapshot backend %q is unknown (want %q, %q or %q)",
			s.Backend, Sequential, Batched, Dense)
	}
	return nil
}

// validateTables checks a multiset snapshot's interning tables: a
// duplicate-free states table (intern assigns each state one id) and,
// unless the counts vector is stale and omitted (withCounts false),
// parallel non-negative counts summing to n. The running sum is compared
// against n before each addition, so counts cannot wrap int64 into a
// plausible total.
func (s *Snapshot[S]) validateTables(withCounts bool) error {
	seen := make(map[S]struct{}, len(s.States))
	for _, st := range s.States {
		if _, dup := seen[st]; dup {
			return fmt.Errorf("pop: %s snapshot interning table repeats state %v", s.Backend, st)
		}
		seen[st] = struct{}{}
	}
	if !withCounts {
		return nil
	}
	if len(s.Counts) != len(s.States) {
		return fmt.Errorf("pop: %s snapshot has %d counts for %d states", s.Backend, len(s.Counts), len(s.States))
	}
	var total int64
	for i, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("pop: %s snapshot count %d of state %v is negative", s.Backend, c, s.States[i])
		}
		if c > int64(s.N)-total {
			return fmt.Errorf("pop: %s snapshot counts total more than n=%d", s.Backend, s.N)
		}
		total += c
	}
	if total != int64(s.N) {
		return fmt.Errorf("pop: %s snapshot counts total %d for n=%d", s.Backend, total, s.N)
	}
	return nil
}

// restorePCG rebuilds a PCG from its marshaled stream state.
func restorePCG(state []byte) (*rand.PCG, error) {
	pcg := rand.NewPCG(0, 0)
	if err := pcg.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("pop: restoring snapshot rng state: %w", err)
	}
	return pcg, nil
}

// sortedStates renders a state set as a slice sorted by each state's JSON
// encoding — comparable types have no order of their own, and map
// iteration must not leak into the snapshot bytes.
func sortedStates[S comparable](set map[S]struct{}) ([]S, error) {
	type enc struct {
		s S
		b []byte
	}
	es := make([]enc, 0, len(set))
	for s := range set {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("pop: marshaling tracked state %v: %w", s, err)
		}
		es = append(es, enc{s, b})
	}
	sort.Slice(es, func(i, j int) bool { return bytes.Compare(es[i].b, es[j].b) < 0 })
	out := make([]S, len(es))
	for i, e := range es {
		out[i] = e.s
	}
	return out, nil
}

// Snapshot captures the sequential engine's full state.
func (s *Sim[S]) Snapshot() (*Snapshot[S], error) {
	rng, err := s.pcg.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("pop: marshaling rng state: %w", err)
	}
	snap := &Snapshot[S]{
		Version:      SnapshotVersion,
		Backend:      Sequential.String(),
		N:            len(s.agents),
		Interactions: s.interactions,
		TimeBase:     s.timeBase,
		SegStart:     s.segStart,
		RNG:          rng,
		Agents:       append([]S(nil), s.agents...),
	}
	if s.seen != nil {
		snap.TrackStates = true
		if snap.Seen, err = sortedStates(s.seen); err != nil {
			return nil, err
		}
	}
	if s.icounts != nil {
		snap.ICounts = append([]int64(nil), s.icounts...)
	}
	return snap, nil
}

// Snapshot captures the batched engine's full state (see
// multiset.snapshot).
func (b *BatchSim[S]) Snapshot() (*Snapshot[S], error) { return b.snapshot(Batched) }

// Snapshot captures the dense engine's full state: the multiset core's,
// plus the delegation cutoff, mode and re-entry countdown.
func (d *DenseSim[S]) Snapshot() (*Snapshot[S], error) {
	snap, err := d.snapshot(Dense)
	if err != nil {
		return nil, err
	}
	snap.Cutoff = d.cutoff
	snap.CutoffOverride = d.cutoffOverride
	snap.Delegated = d.delegated
	snap.DelegateRecheck = d.recheck
	return snap, nil
}

// Restore rebuilds an engine from a snapshot, resuming the exact
// execution: running the restored engine produces the byte-identical
// trajectory (and byte-identical future snapshots) the snapshotted engine
// would have produced. The rule must be the one the original engine ran;
// backend and thresholds come from the snapshot, not from options — of
// the options only WithTable is honored, because it is trajectory-
// neutral: reattaching a compiled table only changes how transitions
// resolve (see table.go). A run may gain or lose the bypass across a
// snapshot boundary without diverging.
func Restore[S comparable](snap *Snapshot[S], rule Rule[S], opts ...Option) (Engine[S], error) {
	if rule == nil {
		panic("pop: nil rule")
	}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	switch snap.Backend {
	case Sequential.String():
		return restoreSim(snap, rule)
	case Batched.String():
		m, err := restoreMultiset(snap, rule, o)
		if err != nil {
			return nil, err
		}
		return &BatchSim[S]{multiset: m}, nil
	default:
		m, err := restoreMultiset(snap, rule, o)
		if err != nil {
			return nil, err
		}
		return &DenseSim[S]{multiset: m, cutoff: snap.Cutoff, cutoffOverride: snap.CutoffOverride,
			delegated: snap.Delegated, recheck: snap.DelegateRecheck}, nil
	}
}

// restoreSim rebuilds a sequential engine.
func restoreSim[S comparable](snap *Snapshot[S], rule Rule[S]) (*Sim[S], error) {
	pcg, err := restorePCG(snap.RNG)
	if err != nil {
		return nil, err
	}
	s := &Sim[S]{
		pcg:          pcg,
		rng:          rand.New(pcg),
		agents:       append([]S(nil), snap.Agents...),
		rule:         rule,
		interactions: snap.Interactions,
		timeBase:     snap.TimeBase,
		segStart:     snap.SegStart,
	}
	if snap.TrackStates {
		s.seen = make(map[S]struct{}, 2*len(snap.Seen))
		for _, st := range snap.Seen {
			s.seen[st] = struct{}{}
		}
	}
	if snap.ICounts != nil {
		s.icounts = append([]int64(nil), snap.ICounts...)
	}
	return s, nil
}
