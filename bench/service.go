package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/popsim/popsize/internal/expt"
	"github.com/popsim/popsize/internal/jobs"
	"github.com/popsim/popsize/internal/sweep"
)

// serviceSlots is the daemon's worker pool and serviceClients the number
// of closed-loop clients: one each per core of the two-core reference
// machine.
const (
	serviceSlots   = 2
	serviceClients = 2
)

// service is an in-process popsimd: a job manager on a fresh state
// directory behind an HTTP test server.
type service struct {
	m  *jobs.Manager
	ts *httptest.Server
}

func startService(dir string, resolve jobs.Resolver) (*service, error) {
	m, err := jobs.NewManager(jobs.Config{Dir: dir, Slots: serviceSlots, Resolve: resolve})
	if err != nil {
		return nil, err
	}
	return &service{m: m, ts: httptest.NewServer(jobs.NewServer(m))}, nil
}

func (s *service) close() {
	s.ts.Close()
	s.m.Close()
}

// quickIDs returns the ids of the -quick suite in index order.
func quickIDs() ([]string, error) {
	suite, err := expt.Resolve(sweep.SpecRequest{Quick: true})
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(suite.Defs))
	for i, d := range suite.Defs {
		ids[i] = d.ID
	}
	return ids, nil
}

// jobResult is what one client saw of one job.
type jobResult struct {
	experiment string
	latency    float64 // POST sent → status read back as done
	status     jobs.Status
	recs       []sweep.Record
	closedAt   time.Time // when the record stream ended
	httpErrors int
	err        error
}

// runService drives the daemon with serviceClients closed-loop clients,
// each taking the next experiment id in index order, submitting it as a
// -quick job, following its record stream to the end and reading its
// status. One op is one job; a pass submits every id once, and passes
// repeat until the budget is spent. Work is counted in sweep units
// (trials). ids nil selects the whole -quick suite.
func runService(c runConfig, ids []string) (*outcome, error) {
	o := newOutcome()
	resolve := func(req sweep.SpecRequest) ([]sweep.Point, error) {
		id := c.tr.begin("expt.ResolvePoints", "", 0)
		defer c.tr.end(id)
		return expt.ResolvePoints(req)
	}
	root, err := os.MkdirTemp("", "popbench-service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Each set-up starts a daemon on a fresh directory; all but the last
	// are closed once the timing is done.
	var started []*service
	experiments := ids
	err = o.timeSetup(func() error {
		var err error
		if ids == nil {
			if experiments, err = quickIDs(); err != nil {
				return err
			}
		}
		svc, err := startService(filepath.Join(root, strconv.Itoa(len(started))), resolve)
		if err == nil {
			started = append(started, svc)
		}
		return err
	})
	for i, s := range started {
		if err != nil || i < len(started)-1 {
			s.close()
		}
	}
	if err != nil {
		return nil, err
	}
	svc := started[len(started)-1]
	defer svc.close()
	ids = experiments

	var results []jobResult
	start := time.Now()
	for pass := 0; pass == 0 || nextFits(start, pass, c.budget); pass++ {
		t := time.Now()
		rs := svc.pass(c, ids, pass)
		o.busy += time.Since(t).Seconds()
		o.noteHeap()
		for _, r := range rs {
			o.attempted++
			if r.err != nil {
				o.fail(fmt.Errorf("job %s: %w", r.experiment, r.err))
				continue
			}
			o.latency = append(o.latency, r.latency)
			o.work += float64(r.status.Units)
		}
		results = append(results, rs...)
	}
	// The first pass's records fingerprint the run; its F2 job must match
	// a direct sweep of the same request byte for byte.
	first := results[:len(ids)]
	sum := sha256.New()
	for _, r := range first {
		canon, err := sweep.CanonicalJSONL(r.recs)
		if err != nil {
			return nil, err
		}
		sum.Write(canon)
		if r.experiment == "F2" {
			o.attempted++
			if err := checkDirectF2(c.seed, canon); err != nil {
				o.fail(err)
			}
		}
	}
	o.det["sweep.canonical_sha256"] = hex.EncodeToString(sum.Sum(nil))

	if c.tr != nil {
		if err := o.serviceLayers(c.tr.recorded(), results, first, root); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// pass submits every id once through serviceClients concurrent clients.
func (s *service) pass(c runConfig, ids []string, pass int) []jobResult {
	results := make([]jobResult, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < serviceClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				results[i] = s.runJob(c, ids[i], fmt.Sprintf("pass %d job %s", pass, ids[i]))
			}
		}()
	}
	wg.Wait()
	return results
}

// runJob submits one experiment, follows its records and reads its final
// status.
func (s *service) runJob(c runConfig, experiment, op string) jobResult {
	r := jobResult{experiment: experiment}
	root := c.tr.begin("service.job", op, 0)
	defer c.tr.end(root)
	client := s.ts.Client()
	fail := func(err error) jobResult {
		r.httpErrors++
		r.err = err
		return r
	}
	body, err := json.Marshal(sweep.SpecRequest{Experiments: []string{experiment}, Quick: true, Seed: c.seed})
	if err != nil {
		r.err = err
		return r
	}
	start := time.Now()
	sp := c.tr.begin("jobs.Submit", op, root)
	var st jobs.Status
	err = call(client, http.MethodPost, s.ts.URL+"/v1/jobs", bytes.NewReader(body), http.StatusCreated, &st)
	c.tr.end(sp)
	if err != nil {
		return fail(err)
	}

	sp = c.tr.begin("jobs.FollowRecords", op, root)
	r.recs, err = follow(client, s.ts.URL+"/v1/jobs/"+st.ID+"/records")
	r.closedAt = time.Now()
	c.tr.end(sp)
	if err != nil {
		return fail(err)
	}

	sp = c.tr.begin("jobs.Status", op, root)
	err = call(client, http.MethodGet, s.ts.URL+"/v1/jobs/"+st.ID, nil, http.StatusOK, &r.status)
	c.tr.end(sp)
	if err != nil {
		return fail(err)
	}
	r.latency = time.Since(start).Seconds()
	r.err = checkJob(r.status, len(r.recs))
	return r
}

// call sends one request and decodes the JSON reply, which must carry the
// wanted status code.
func call(client *http.Client, method, url string, body io.Reader, want int, into any) error {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, data)
	}
	return json.Unmarshal(data, into)
}

// follow reads a job's record stream until the server closes it.
func follow(client *http.Client, url string) ([]sweep.Record, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	var recs []sweep.Record
	dec := json.NewDecoder(resp.Body)
	for {
		var rec sweep.Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, fmt.Errorf("GET %s: %w", url, err)
		}
		recs = append(recs, rec)
	}
}

// checkJob checks one job's end state: done, with every unit recorded and
// streamed.
func checkJob(st jobs.Status, streamed int) error {
	switch {
	case st.State != jobs.StateDone:
		return fmt.Errorf("ended %s (%s)", st.State, st.Error)
	case st.Units == 0 || st.Records != st.Units:
		return fmt.Errorf("%d of %d units recorded", st.Records, st.Units)
	case streamed != st.Units:
		return fmt.Errorf("%d of %d records streamed", streamed, st.Units)
	}
	return nil
}

// checkDirectF2 runs the F2 -quick request straight through the sweep
// layer and compares its canonical record bytes with the job's.
func checkDirectF2(seed uint64, job []byte) error {
	req := sweep.SpecRequest{Experiments: []string{"F2"}, Quick: true, Seed: seed}
	req.SetDefaults()
	points, err := expt.ResolvePoints(req)
	if err != nil {
		return err
	}
	spec, err := req.Spec(points)
	if err != nil {
		return err
	}
	res, err := sweep.RunContext(context.Background(), spec, sweep.Options{})
	if err != nil {
		return err
	}
	direct, err := sweep.CanonicalJSONL(res.Sorted())
	if err != nil {
		return err
	}
	return checkCanonical(job, direct)
}

func checkCanonical(job, direct []byte) error {
	if !bytes.Equal(job, direct) {
		return fmt.Errorf("F2 job records (%d canonical bytes) differ from a direct sweep (%d bytes)", len(job), len(direct))
	}
	return nil
}

// serviceLayers sets the jobs, sweep and expt metrics of a traced run.
func (o *outcome) serviceLayers(spans []span, all, first []jobResult, dir string) error {
	var wait, runS, tail, unitMS []float64
	var unitS float64
	httpErrors, units := 0, 0
	for _, r := range all {
		httpErrors += r.httpErrors
		if r.err != nil {
			continue
		}
		st := r.status
		wait = append(wait, 1000*st.Started.Sub(st.Created).Seconds())
		runS = append(runS, st.Finished.Sub(*st.Started).Seconds())
		tail = append(tail, 1000*r.closedAt.Sub(*st.Finished).Seconds())
		for _, rec := range r.recs {
			unitMS = append(unitMS, rec.WallMS)
			unitS += rec.WallMS / 1000
		}
	}
	for _, r := range first {
		units += r.status.Units
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.jsonl"))
	if err != nil {
		return err
	}
	var size int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	resolves, submits := durations(spans, "expt.ResolvePoints"), durations(spans, "jobs.Submit")
	n := fmt.Sprintf("%d jobs", len(wait))
	o.setLayer("expt.resolve_ms_p50", 1000*median(resolves), fmt.Sprintf("%d calls", len(resolves)))
	o.setLayer("jobs.submit_ms_p50", 1000*median(submits), fmt.Sprintf("%d calls", len(submits)))
	o.setLayer("jobs.queue_wait_ms_p50", median(wait), n)
	o.setLayer("jobs.run_s_p50", median(runS), n)
	o.setLayer("jobs.follow_tail_ms_p50", median(tail), n)
	o.setLayer("jobs.http_errors", float64(httpErrors), "")
	o.setLayer("jobs.slot_busy_frac", ratio(unitS, serviceSlots*o.busy), fmt.Sprintf("%d slots × %.3f s", serviceSlots, o.busy))
	o.setLayer("sweep.unit_ms_p50", median(unitMS), fmt.Sprintf("%d units", len(unitMS)))
	o.setLayer("sweep.units", float64(units), "first pass")
	o.setLayer("sweep.checkpoint_bytes", float64(size), fmt.Sprintf("%d checkpoint files", len(files)))
	return nil
}
