// Package jobs turns the sweep subsystem into a multi-tenant service
// substrate: a Manager owns a directory of per-job JSONL checkpoints, a
// bounded worker-slot Pool shared fairly across concurrent jobs, and a
// registry of Jobs — submitted sweep requests progressing through a small
// state machine (pending → running → done/failed/canceled). Each job's
// record stream is exactly the sweep's JSONL wire format; because every
// record is checkpointed as it completes and sweep resume is canonical
// (byte-identical merged streams), a daemon kill at any point is
// recoverable: on restart the Manager reloads every manifest and resumes
// unfinished jobs through the same LoadCheckpoint path an interrupted CLI
// sweep uses.
package jobs

import (
	"context"
	"sync"
	"time"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
)

// State is a job's lifecycle stage.
type State string

const (
	// StatePending: accepted and queued, waiting for admission. Admission
	// is immediate for any number of jobs — each job's engine environment
	// is bound into its own resolved trial closures, so heterogeneous
	// jobs coexist — and the shared slot pool governs actual concurrency.
	StatePending State = "pending"
	// StateRunning: units are executing (or resuming after a restart).
	StateRunning State = "running"
	// StateDone: every unit completed and is checkpointed.
	StateDone State = "done"
	// StateFailed: the run stopped on an error (resolution failure or a
	// checkpoint write failure); Error carries the message.
	StateFailed State = "failed"
	// StateCanceled: stopped by DELETE /v1/jobs/{id}. Completed units
	// remain checkpointed, so the job's records stay readable.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted sweep request and its progress. All mutable state
// is guarded by mu; readers get consistent snapshots via Status and
// RecordsFrom.
type Job struct {
	id  string
	req sweep.SpecRequest
	// backend is the job's resolved engine environment: the request's
	// backend string parsed once at job construction. It is per-job
	// data: the resolver binds the same value into the trial closures,
	// the spec stamp reuses it (no re-parse), and Status surfaces it;
	// nothing about it is process-wide.
	backend pop.Backend

	mu       sync.Mutex
	state    State
	errMsg   string
	units    int // total trials in the resolved spec (0 until resolved)
	records  []sweep.Record
	have     map[sweep.Key]bool // dedup: resume replays reused records
	updated  chan struct{}      // closed+replaced on every append/state change
	created  time.Time
	started  time.Time
	finished time.Time

	cancel    context.CancelFunc // non-nil while running
	canceledV bool               // canceled via API (vs daemon shutdown)
	done      chan struct{}      // closed when the runner goroutine exits
}

// newJob builds a job, resolving its engine environment from the request
// — the one ParseBackend site on the job path; Submit and manifest reload
// both store the result here.
func newJob(id string, req sweep.SpecRequest, created time.Time) (*Job, error) {
	be, err := req.ParseBackend()
	if err != nil {
		return nil, err
	}
	return &Job{
		id: id, req: req, backend: be,
		state:   StatePending,
		have:    map[sweep.Key]bool{},
		updated: make(chan struct{}),
		created: created,
		done:    make(chan struct{}),
	}, nil
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Request returns the submitted request.
func (j *Job) Request() sweep.SpecRequest { return j.req }

// State returns the current lifecycle stage.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status is the wire representation of a job's progress (the service's
// job-status JSON).
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Units is the total number of trials the resolved spec holds;
	// Records of them are completed (checkpointed), reused ones included.
	Units   int               `json:"units"`
	Records int               `json:"records"`
	Error   string            `json:"error,omitempty"`
	Request sweep.SpecRequest `json:"request"`
	// Backend echoes the job's resolved engine environment: the
	// request's backend string parsed to its canonical name.
	Backend string `json:"backend"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, State: j.state,
		Units: j.units, Records: len(j.records),
		Error: j.errMsg, Request: j.req, Created: j.created,
		Backend: j.backend.String(),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// notifyLocked wakes every subscriber blocked on the previous updated
// channel. Callers hold mu.
func (j *Job) notifyLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// append folds one completed (or replayed) record into the stream,
// deduplicating by key: a resumed sweep re-observes its checkpointed
// records in unit order, and a subscriber that already saw the key must
// not receive it twice.
func (j *Job) append(rec sweep.Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.have[rec.Key] {
		return
	}
	j.have[rec.Key] = true
	j.records = append(j.records, rec)
	j.notifyLocked()
}

// setState moves the job through its lifecycle, stamping the transition
// times.
func (j *Job) setState(s State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	if errMsg != "" {
		j.errMsg = errMsg
	}
	now := time.Now()
	switch {
	case s == StateRunning && j.started.IsZero():
		j.started = now
	case s.Terminal():
		j.finished = now
	}
	j.notifyLocked()
}

// Records returns a snapshot of the completed records, in completion
// (stream) order.
func (j *Job) Records() []sweep.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]sweep.Record, len(j.records))
	copy(out, j.records)
	return out
}

// RecordsFrom returns the records at stream positions >= idx, the channel
// that will be closed on the next append or state change, and the current
// state — everything a streaming subscriber needs for one iteration of
// emit-then-wait.
func (j *Job) RecordsFrom(idx int) (recs []sweep.Record, updated <-chan struct{}, st State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if idx < len(j.records) {
		recs = make([]sweep.Record, len(j.records)-idx)
		copy(recs, j.records[idx:])
	}
	return recs, j.updated, j.state
}

// IndexAfter returns the stream position just past the record with the
// given key, or 0 when the key is absent — the Last-Event-ID resume rule:
// an unknown id (e.g. a torn-tail record whose rerun was re-keyed by a
// daemon restart) replays from the start, and the client dedups by key.
func (j *Job) IndexAfter(k sweep.Key) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, r := range j.records {
		if r.Key == k {
			return i + 1
		}
	}
	return 0
}

// Done returns the channel closed when the job's runner goroutine exits
// (never closed for jobs that finished in a previous daemon life and were
// reloaded terminal — their state already reports it).
func (j *Job) Done() <-chan struct{} { return j.done }
