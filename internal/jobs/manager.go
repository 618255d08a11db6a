package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/popsim/popsize/internal/sweep"
)

// ErrInternal marks Submit failures that are the daemon's fault (id
// generation, state-directory writes) rather than the client's; the HTTP
// layer maps it to 500 where every other Submit error is a 400.
var ErrInternal = errors.New("jobs: internal error")

// Resolver turns a validated request into its sweep points. Any error it
// returns is a client error (unknown experiment id, bad grid) and is
// reported as such by the HTTP layer. The daemon wires expt.ResolvePoints.
type Resolver func(req sweep.SpecRequest) ([]sweep.Point, error)

// Config assembles a Manager.
type Config struct {
	// Dir is the state directory: one <id>.json manifest and one
	// <id>.jsonl record checkpoint per job. Created if missing.
	Dir string
	// Slots bounds the shared worker pool (<= 0: GOMAXPROCS).
	Slots int
	// Resolve maps requests to sweep points. The resolver binds each
	// request's engine environment (its backend) into the returned trial
	// closures, so jobs with different environments run concurrently —
	// the Manager imposes no admission ordering beyond slot fairness.
	Resolve Resolver
}

// Manager owns the job registry, the shared slot pool, and the state
// directory. It is safe for concurrent use by the HTTP handlers.
type Manager struct {
	cfg  Config
	pool *Pool
	// slots is the pool size (resolved from cfg.Slots), which is also the
	// per-job worker-goroutine bound.
	slots int

	baseCtx context.Context
	stopAll context.CancelFunc

	mu    sync.Mutex
	jobs  map[string]*Job
	queue []*Job // pending, admitted FIFO
}

// NewManager opens (or creates) the state directory, reloads every job
// recorded there — terminal jobs become queryable history, unfinished ones
// are requeued and resume through their checkpoints — and starts the
// admission loop.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("jobs: Config.Resolve is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		pool:    NewPool(slots),
		slots:   slots,
		baseCtx: ctx,
		stopAll: cancel,
		jobs:    map[string]*Job{},
	}
	if err := m.reload(); err != nil {
		cancel()
		return nil, err
	}
	m.mu.Lock()
	m.admitLocked()
	m.mu.Unlock()
	return m, nil
}

// manifest is the persisted job descriptor (<id>.json). The record stream
// lives next to it in <id>.jsonl — the sweep checkpoint format verbatim.
type manifest struct {
	ID       string            `json:"id"`
	Request  sweep.SpecRequest `json:"request"`
	State    State             `json:"state"`
	Error    string            `json:"error,omitempty"`
	Created  time.Time         `json:"created"`
	Started  time.Time         `json:"started"`
	Finished time.Time         `json:"finished"`
}

func (m *Manager) manifestPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".json")
}

// RecordsPath returns the job's JSONL checkpoint path.
func (m *Manager) RecordsPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".jsonl")
}

// persist writes the job's manifest atomically (tmp + rename), so a kill
// mid-write can never corrupt a manifest into an unparseable state.
func (m *Manager) persist(j *Job) error {
	j.mu.Lock()
	man := manifest{
		ID: j.id, Request: j.req, State: j.state, Error: j.errMsg,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	j.mu.Unlock()
	// A running job's manifest persists as pending: if the daemon dies
	// before the next write, the restarted daemon must requeue it, and
	// "running" would be a lie until admission.
	if man.State == StateRunning {
		man.State = StatePending
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := m.manifestPath(j.id) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, m.manifestPath(j.id))
}

// reload scans the state directory, rebuilding the registry: records are
// replayed from each job's checkpoint (file order = original completion
// order, so Last-Event-ID positions survive the restart), and non-terminal
// jobs are requeued in creation order.
func (m *Manager) reload() error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return err
	}
	var requeue []*Job
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(m.cfg.Dir, name))
		if err != nil {
			return err
		}
		var man manifest
		if err := json.Unmarshal(data, &man); err != nil {
			return fmt.Errorf("jobs: manifest %s: %w", name, err)
		}
		j, err := newJob(man.ID, man.Request, man.Created)
		if err != nil {
			return fmt.Errorf("jobs: manifest %s: %w", name, err)
		}
		j.state = man.State
		j.errMsg = man.Error
		j.started = man.Started
		j.finished = man.Finished
		// Replay the checkpointed records. A torn tail (daemon killed
		// mid-write) is dropped here exactly as the resume path drops it:
		// that trial reruns.
		if fh, err := os.Open(m.RecordsPath(man.ID)); err == nil {
			recs, rerr := sweep.ReadRecords(fh)
			fh.Close()
			if rerr != nil && rerr != sweep.ErrTornTail {
				return fmt.Errorf("jobs: records %s: %w", m.RecordsPath(man.ID), rerr)
			}
			for _, rec := range recs {
				if !j.have[rec.Key] {
					j.have[rec.Key] = true
					j.records = append(j.records, rec)
				}
			}
		} else if !os.IsNotExist(err) {
			return err
		}
		j.units = len(j.records) // refined when the spec resolves
		m.jobs[j.id] = j
		if !j.state.Terminal() {
			j.state = StatePending
			requeue = append(requeue, j)
		}
	}
	sort.Slice(requeue, func(i, k int) bool { return requeue[i].created.Before(requeue[k].created) })
	m.queue = append(m.queue, requeue...)
	return nil
}

// newID returns a fresh job identifier ("j-" + 8 random hex chars).
func newID() (string, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "j-" + hex.EncodeToString(b[:]), nil
}

// Submit validates and enqueues a request, resolving it immediately so a
// bad submission (unknown experiment, invalid grid) fails the POST rather
// than a job. The returned job is pending (or already running, if the
// pool admitted it synchronously).
func (m *Manager) Submit(req sweep.SpecRequest) (*Job, error) {
	req.SetDefaults()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	points, err := m.cfg.Resolve(req)
	if err != nil {
		return nil, err
	}
	id, err := newID()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	j, err := newJob(id, req, time.Now())
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		j.units += p.Trials
	}
	if err := m.persist(j); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	m.mu.Lock()
	m.jobs[id] = j
	m.queue = append(m.queue, j)
	m.admitLocked()
	m.mu.Unlock()
	return j, nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job, newest first.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].created.Equal(out[k].created) {
			return out[i].created.After(out[k].created)
		}
		return out[i].id < out[k].id
	})
	return out
}

// admitLocked starts every queued job immediately, in FIFO order. There
// is no admission gate: each job's engine environment lives in its own
// resolved trial closures, so heterogeneous jobs coexist, and the shared
// slot pool is what bounds concurrency and keeps it fair.
func (m *Manager) admitLocked() {
	for len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		if j.State() != StatePending {
			// Canceled while queued.
			continue
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.mu.Lock()
		j.cancel = cancel
		j.mu.Unlock()
		go m.run(ctx, j)
	}
}

// run executes one admitted job to a terminal state (or to daemon
// shutdown, which leaves it resumable).
func (m *Manager) run(ctx context.Context, j *Job) {
	defer close(j.done)
	j.setState(StateRunning, "")
	// The running state is persisted as pending (see persist) purely so a
	// killed daemon requeues it; failures to persist are not fatal to the
	// run itself.
	_ = m.persist(j)

	fail := func(msg string) {
		j.setState(StateFailed, msg)
		_ = m.persist(j)
	}
	points, err := m.cfg.Resolve(j.req)
	if err != nil {
		fail(err.Error())
		return
	}
	// Stamp the spec from the env resolved at job construction — the same
	// values the resolver bound into the trial closures — rather than
	// re-parsing the request's backend string.
	seed := j.req.Seed
	if seed == 0 {
		seed = 1
	}
	spec := sweep.Spec{
		Points:   points,
		BaseSeed: seed,
		Backend:  j.backend,
		Workers:  j.req.Workers,
	}
	// Every job may spawn up to the whole pool's worth of worker
	// goroutines; actual concurrency is governed by slot acquisition, so
	// a lone job uses the full pool and concurrent jobs share it fairly.
	if spec.Workers <= 0 || spec.Workers > m.slots {
		spec.Workers = m.slots
	}
	done, out, err := sweep.OpenCheckpoint(m.RecordsPath(j.id), true)
	if err != nil {
		fail(err.Error())
		return
	}
	client := m.pool.Client()
	opt := sweep.Options{
		Out:      out,
		Done:     done,
		OnRecord: j.append,
		Acquire: func(ctx context.Context) (func(), error) {
			if err := client.Acquire(ctx); err != nil {
				return nil, err
			}
			return client.Release, nil
		},
	}
	_, runErr := sweep.RunContext(ctx, spec, opt)
	client.Close()
	cerr := out.Close()

	j.mu.Lock()
	apiCancel := j.canceledV
	j.mu.Unlock()
	switch {
	case apiCancel:
		j.setState(StateCanceled, "")
		_ = m.persist(j)
	case m.baseCtx.Err() != nil:
		// Daemon shutdown: not a terminal state — the persisted manifest
		// still says pending, so the next daemon life resumes the job.
		j.setState(StatePending, "")
	case runErr != nil:
		fail(runErr.Error())
	case cerr != nil:
		fail(cerr.Error())
	default:
		j.setState(StateDone, "")
		_ = m.persist(j)
	}
}

// Cancel stops a job: pending jobs are withdrawn immediately; running
// jobs stop between units (sweep cancellation), which takes at most about
// one unit's runtime — Cancel waits for that, bounded by ctx. Terminal
// jobs are left as they are (idempotent). The job's checkpoint always
// remains loadable.
func (m *Manager) Cancel(ctx context.Context, id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: no job %s", id)
	}
	j.mu.Lock()
	st := j.state
	j.canceledV = st == StatePending || st == StateRunning
	cancel := j.cancel
	j.mu.Unlock()
	if st == StatePending {
		// Withdraw under m.mu, so admission cannot race the decision.
		for i, q := range m.queue {
			if q == j {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
	}
	m.mu.Unlock()
	switch st {
	case StatePending:
		j.setState(StateCanceled, "")
		if err := m.persist(j); err != nil {
			return j, err
		}
		return j, nil
	case StateRunning:
		cancel()
		select {
		case <-j.done:
			return j, nil
		case <-ctx.Done():
			return j, ctx.Err()
		}
	default:
		return j, nil
	}
}

// Close stops every running job (their manifests stay pending, so a new
// Manager on the same directory resumes them) and waits for every runner
// to exit — including one whose job just turned terminal and is still
// persisting its manifest.
func (m *Manager) Close() {
	m.stopAll()
	m.mu.Lock()
	var runners []*Job
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			runners = append(runners, j)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, j := range runners {
		<-j.done
	}
}
