package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/popsim/popsize/internal/expt"
	"github.com/popsim/popsize/internal/sweep"
)

// testResolver resolves the synthetic experiments "fast" and "slow" into
// deterministic points: each trial's value is a pure function of (trial,
// seed), so interrupted and uninterrupted runs are byte-comparable after
// canonicalization. delay stretches each trial for cancellation and
// fairness tests.
func testResolver(delay time.Duration) Resolver {
	known := []string{"fast", "slow"}
	return func(req sweep.SpecRequest) ([]sweep.Point, error) {
		exps := req.Experiments
		if len(exps) == 0 {
			exps = []string{"fast"}
		}
		ns := req.Ns
		if len(ns) == 0 {
			ns = []int{4}
		}
		trials := req.Trials
		if trials == 0 {
			trials = 2
		}
		var pts []sweep.Point
		for _, e := range exps {
			if e != "fast" && e != "slow" {
				return nil, sweep.UnknownName("experiment", e, known)
			}
			for _, n := range ns {
				pts = append(pts, sweep.Point{
					Experiment: e, N: n, Trials: trials,
					Run: func(trial int, seed uint64) sweep.Values {
						if delay > 0 {
							time.Sleep(delay)
						}
						return sweep.Values{"x": float64(trial) + float64(seed%97)/100}
					},
				})
			}
		}
		return pts, nil
	}
}

func newTestManager(t *testing.T, dir string, slots int, delay time.Duration) *Manager {
	t.Helper()
	m, err := NewManager(Config{Dir: dir, Slots: slots, Resolve: testResolver(delay)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func postJob(t *testing.T, ts *httptest.Server, body string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: %d %s", resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("status decode: %v (%s)", err, data)
	}
	return st
}

// streamRecords reads the job's record stream (following until the job is
// terminal) and returns the parsed records.
func streamRecords(t *testing.T, ts *httptest.Server, id, after string) []sweep.Record {
	t.Helper()
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/records", nil)
	if after != "" {
		req.Header.Set("Last-Event-ID", after)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET records: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("records content type %q", ct)
	}
	var recs []sweep.Record
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAPILifecycle walks a job through submit → stream → summary → cancel
// (a no-op on a finished job), plus the 404/400 error paths.
func TestAPILifecycle(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 2, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	st := postJob(t, ts, `{"experiments":["fast"],"ns":[4,8],"trials":3,"seed":7}`)
	if st.ID == "" || st.Units != 6 {
		t.Fatalf("submitted status %+v, want 6 units", st)
	}

	recs := streamRecords(t, ts, st.ID, "")
	if len(recs) != 6 {
		t.Fatalf("streamed %d records, want 6", len(recs))
	}
	seen := map[sweep.Key]bool{}
	for _, r := range recs {
		if seen[r.Key] {
			t.Fatalf("duplicate record key %+v in stream", r.Key)
		}
		seen[r.Key] = true
		if r.Seed == 0 || r.Values["x"] == 0 {
			t.Fatalf("record %+v looks unpopulated", r)
		}
	}

	if st := getStatus(t, ts, st.ID); st.State != StateDone || st.Records != 6 {
		t.Fatalf("final status %+v, want done with 6 records", st)
	}

	// Summary: 2 groups (one field × two ns), 3 trials each.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		State   State `json:"state"`
		Records int   `json:"records"`
		Groups  []struct {
			Experiment string  `json:"experiment"`
			N          int     `json:"n"`
			Field      string  `json:"field"`
			Trials     int     `json:"trials"`
			Mean       float64 `json:"mean"`
		} `json:"groups"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.Records != 6 || len(sum.Groups) != 2 {
		t.Fatalf("summary %+v, want 6 records in 2 groups", sum)
	}
	for _, g := range sum.Groups {
		if g.Trials != 3 || g.Field != "x" {
			t.Fatalf("summary group %+v, want 3 trials of field x", g)
		}
	}

	// CSV rendering of the same summary.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/summary?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Type") != "text/csv" || !strings.Contains(string(csv), "experiment") {
		t.Fatalf("csv summary: ct=%q body=%q", resp.Header.Get("Content-Type"), csv)
	}

	// Cancel after completion: idempotent no-op.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var after Status
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.State != StateDone {
		t.Fatalf("cancel of a done job moved it to %q", after.State)
	}

	// Error paths: unknown job, malformed body, unknown field.
	if resp, _ := http.Get(ts.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"trails":3}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typoed field returned %d, want 400", resp.StatusCode)
	}
}

// TestPanickingTrialFailsJob: a trial that panics fails its job with the
// panic text instead of taking the daemon down, frees its pool slots, and
// the manager then runs the next job to completion.
func TestPanickingTrialFailsJob(t *testing.T) {
	fast := testResolver(0)
	resolve := func(req sweep.SpecRequest) ([]sweep.Point, error) {
		if len(req.Experiments) == 1 && req.Experiments[0] == "boom" {
			return []sweep.Point{{Experiment: "boom", N: 4, Trials: 3,
				Run: func(int, uint64) sweep.Values { panic("trial exploded") }}}, nil
		}
		return fast(req)
	}
	m, err := NewManager(Config{Dir: t.TempDir(), Slots: 2, Resolve: resolve})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	wait := func(j *Job) Status {
		t.Helper()
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished: %+v", j.Status().ID, j.Status())
		}
		return j.Status()
	}

	bad, err := m.Submit(sweep.SpecRequest{Experiments: []string{"boom"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := wait(bad); st.State != StateFailed || !strings.Contains(st.Error, "trial exploded") {
		t.Fatalf("panicking job ended as %+v, want failed with the panic text", st)
	}
	good, err := m.Submit(sweep.SpecRequest{Experiments: []string{"fast"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := wait(good); st.State != StateDone || st.Records != st.Units || st.Units == 0 {
		t.Fatalf("job after the panic ended as %+v, want done with every unit recorded", st)
	}
}

// TestAPIUnknownExperiment asserts the 400 carries the shared UnknownName
// shape — the message lists what does exist — through both the synthetic
// resolver and the real expt catalog the daemon wires.
func TestAPIUnknownExperiment(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment returned %d, want 400", resp.StatusCode)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(apiErr.Error, `unknown experiment "nope"`) || !strings.Contains(apiErr.Error, "fast, slow") {
		t.Fatalf("error %q does not carry the UnknownName listing", apiErr.Error)
	}

	// Same path against the real reproduction catalog.
	m2, err := NewManager(Config{Dir: t.TempDir(), Slots: 1, Resolve: expt.ResolvePoints})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	ts2 := httptest.NewServer(NewServer(m2))
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["nope"],"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(apiErr.Error, `unknown experiment "nope"`) ||
		!strings.Contains(apiErr.Error, "F2") {
		t.Fatalf("catalog resolver: %d %q, want 400 listing the suite ids", resp.StatusCode, apiErr.Error)
	}
}

// TestAPIRejectsOversizedBody: a submission body over the 1 MiB cap is
// refused with 413 before it is decoded in full, and creates no job.
func TestAPIRejectsOversizedBody(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	body := `{"experiments":["` + strings.Repeat("a", maxSubmitBytes) + `"]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d, want 413", resp.StatusCode)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("oversized body created %d jobs", len(jobs))
	}
}

// TestAPIRejectsSeqAboveCap: a seq submission with a size above
// sweep.MaxSeqN would ask for an agent array beyond memory, a fatal error
// no recover catches, so the POST is refused with 400 naming the cap and
// creates no job; the same size on dense is accepted.
func TestAPIRejectsSeqAboveCap(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["fast"],"backend":"seq","ns":[1000000000000]}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, strconv.Itoa(sweep.MaxSeqN)) {
		t.Fatalf("seq above the cap: %d %q, want 400 naming the cap %d", resp.StatusCode, apiErr.Error, sweep.MaxSeqN)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("refused submission created %d jobs", len(jobs))
	}
	postJob(t, ts, `{"experiments":["fast"],"backend":"dense","ns":[1000000000000],"trials":1}`)

	// A pending manifest that predates the cap is requeued on restart; the
	// production resolver validates it again, so it fails instead of running.
	dir := t.TempDir()
	man := `{"id":"j-0000seq1","request":{"experiments":["E1"],"quick":true,"backend":"seq","ns":[1000000000000]},"state":"pending"}`
	if err := os.WriteFile(filepath.Join(dir, "j-0000seq1.json"), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(Config{Dir: dir, Slots: 1, Resolve: expt.ResolvePoints})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j, ok := m2.Get("j-0000seq1")
	if !ok {
		t.Fatal("requeued manifest not loaded")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("requeued job above the cap did not end")
	}
	if st := j.Status(); st.State != StateFailed || !strings.Contains(st.Error, strconv.Itoa(sweep.MaxSeqN)) {
		t.Fatalf("requeued job above the cap: %s %q, want failed naming the cap", st.State, st.Error)
	}
}

// TestAPIRejectsUnitsAboveCap: Spec.Units allocates one unit per trial,
// so a request whose trials exceed sweep.MaxUnits, alone or summed over
// its points, is refused with 400 naming the cap and creates no job; a
// pending manifest above the cap fails on requeue instead of running.
func TestAPIRejectsUnitsAboveCap(t *testing.T) {
	m, err := NewManager(Config{Dir: t.TempDir(), Slots: 1, Resolve: expt.ResolvePoints})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	limit := strconv.Itoa(sweep.MaxUnits)
	for _, body := range []string{
		`{"experiments":["E1"],"quick":true,"trials":200000}`,                    // 2 sizes × 3·200000
		`{"experiments":["E1"],"trials":` + strconv.Itoa(sweep.MaxUnits+1) + `}`, // one point's trials
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, limit) {
			t.Errorf("%s: %d %q, want 400 naming the cap %s", body, resp.StatusCode, apiErr.Error, limit)
		}
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("refused submissions created %d jobs", len(jobs))
	}

	dir := t.TempDir()
	man := `{"id":"j-0000unit","request":{"experiments":["E1"],"quick":true,"trials":200000},"state":"pending"}`
	if err := os.WriteFile(filepath.Join(dir, "j-0000unit.json"), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(Config{Dir: dir, Slots: 1, Resolve: expt.ResolvePoints})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j, ok := m2.Get("j-0000unit")
	if !ok {
		t.Fatal("requeued manifest not loaded")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("requeued job above the cap did not end")
	}
	if st := j.Status(); st.State != StateFailed || !strings.Contains(st.Error, limit) {
		t.Fatalf("requeued job above the cap: %s %q, want failed naming the cap", st.State, st.Error)
	}
}

// TestAPIStreamResume checks Last-Event-ID / ?after= resume semantics: the
// stream replays only records past the named key, and an unknown id
// replays from the start.
func TestAPIStreamResume(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 2, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	st := postJob(t, ts, `{"experiments":["fast"],"ns":[4],"trials":5}`)
	all := streamRecords(t, ts, st.ID, "")
	if len(all) != 5 {
		t.Fatalf("streamed %d records, want 5", len(all))
	}
	tail := streamRecords(t, ts, st.ID, all[1].Key.ID())
	if len(tail) != 3 {
		t.Fatalf("resume after record 2 streamed %d records, want 3", len(tail))
	}
	for i, r := range tail {
		if r.Key != all[2+i].Key {
			t.Fatalf("resumed stream out of order: %+v at %d", r.Key, i)
		}
	}
	// ?after= is the query-side spelling of the same id.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/records?after=" + "missing%7C1%7C2")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := len(bytes.Split(bytes.TrimSpace(data), []byte("\n"))); got != 5 {
		t.Fatalf("unknown resume id replayed %d records, want full 5", got)
	}
	// A malformed id is a client error.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/records?after=garbage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed resume id returned %d, want 400", resp.StatusCode)
	}
}

// TestAPICancelRunning cancels a mid-flight job: DELETE must return within
// about one unit's runtime, the job ends canceled, and its checkpoint
// remains loadable.
func TestAPICancelRunning(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, 1, 20*time.Millisecond)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	st := postJob(t, ts, `{"experiments":["slow"],"ns":[4],"trials":200}`)
	j, _ := m.Get(st.ID)
	// Wait for some progress so the cancel is genuinely mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for len(j.Records()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(time.Millisecond)
	}

	begin := time.Now()
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var after Status
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.State != StateCanceled {
		t.Fatalf("canceled job reports %q", after.State)
	}
	if wait := time.Since(begin); wait > 5*time.Second {
		t.Fatalf("cancel took %v — not within a unit's runtime", wait)
	}
	if after.Records >= 200 {
		t.Fatalf("cancel left %d records — nothing was actually canceled", after.Records)
	}
	done, err := sweep.LoadCheckpoint(m.RecordsPath(st.ID))
	if err != nil {
		t.Fatalf("checkpoint after cancel not loadable: %v", err)
	}
	if len(done) != after.Records {
		t.Fatalf("checkpoint holds %d records, status says %d", len(done), after.Records)
	}
}

// TestAPIRestartResume is the crash-recovery contract end to end: kill the
// daemon mid-job (leaving a torn checkpoint tail), restart on the same
// state directory, let the job finish, and require the final record set to
// be canonically byte-identical to an uninterrupted run of the same
// request — and the record stream to resume across the restart via
// Last-Event-ID without duplicating keys.
func TestAPIRestartResume(t *testing.T) {
	dir := t.TempDir()
	body := `{"experiments":["slow"],"ns":[4],"trials":10,"seed":3}`

	m1 := newTestManager(t, dir, 1, 15*time.Millisecond)
	ts1 := httptest.NewServer(NewServer(m1))
	st := postJob(t, ts1, body)
	j1, _ := m1.Get(st.ID)
	deadline := time.Now().Add(10 * time.Second)
	for len(j1.Records()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	firstSeen := j1.Records()
	ts1.Close()
	m1.Close() // daemon dies between units; manifest stays non-terminal

	// Simulate a kill mid-write: a torn (newline-less) tail on the
	// checkpoint, which resume must drop and rerun.
	fh, err := os.OpenFile(m1.RecordsPath(st.ID), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(`{"experiment":"slow","n":4,"tri`); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	m2 := newTestManager(t, dir, 1, 15*time.Millisecond)
	defer m2.Close()
	ts2 := httptest.NewServer(NewServer(m2))
	defer ts2.Close()

	// Resume the stream across the restart from the last record the first
	// daemon life delivered.
	tail := streamRecords(t, ts2, st.ID, firstSeen[len(firstSeen)-1].Key.ID())
	got := map[sweep.Key]bool{}
	for _, r := range firstSeen {
		got[r.Key] = true
	}
	for _, r := range tail {
		if got[r.Key] {
			t.Fatalf("record %+v delivered twice across the restart", r.Key)
		}
		got[r.Key] = true
	}
	if len(got) != 10 {
		t.Fatalf("stitched stream holds %d records, want 10", len(got))
	}
	if st := getStatus(t, ts2, st.ID); st.State != StateDone {
		t.Fatalf("resumed job ended %q", st.State)
	}

	// Byte-identity: the interrupted-and-resumed checkpoint canonicalizes
	// to exactly an uninterrupted run's bytes.
	canon := func(path string) []byte {
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		recs, err := sweep.ReadRecords(fh)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		b, err := sweep.CanonicalJSONL(recs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	resumed := canon(m2.RecordsPath(st.ID))

	dir3 := t.TempDir()
	m3 := newTestManager(t, dir3, 1, 0)
	defer m3.Close()
	ts3 := httptest.NewServer(NewServer(m3))
	defer ts3.Close()
	st3 := postJob(t, ts3, body)
	streamRecords(t, ts3, st3.ID, "") // follow to completion
	uninterrupted := canon(m3.RecordsPath(st3.ID))
	if !bytes.Equal(resumed, uninterrupted) {
		t.Fatalf("resumed record set diverges from uninterrupted run:\n%s\nvs\n%s", resumed, uninterrupted)
	}
}

// TestTwoJobFairness is the starvation smoke test: with one shared slot, a
// small job submitted behind a big one must finish while the big one is
// still running — round-robin interleaves them instead of letting the big
// job's queue monopolize the pool.
func TestTwoJobFairness(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 15*time.Millisecond)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	big := postJob(t, ts, `{"experiments":["slow"],"ns":[4],"trials":40}`)
	jb, _ := m.Get(big.ID)
	deadline := time.Now().Add(10 * time.Second)
	for len(jb.Records()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("big job never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	small := postJob(t, ts, `{"experiments":["fast"],"ns":[4],"trials":2}`)
	js, _ := m.Get(small.ID)
	select {
	case <-js.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("small job starved behind the big one")
	}
	if js.State() != StateDone {
		t.Fatalf("small job ended %q", js.State())
	}
	if n := len(jb.Records()); n >= 40 {
		t.Fatalf("big job already finished (%d records) — fairness unobservable", n)
	}
	if _, err := m.Cancel(context.Background(), big.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHeterogeneousJobsOverlap asserts the admission contract after the
// env-generation barrier's removal: jobs with different engine
// environments are admitted immediately and run concurrently. Both jobs
// must be observably running at the same moment, their Status timestamps
// must overlap, and each Status must surface its resolved env.
func TestHeterogeneousJobsOverlap(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 2, 10*time.Millisecond)
	defer m.Close()

	a, err := m.Submit(sweep.SpecRequest{Experiments: []string{"slow"}, Ns: []int{4}, Trials: 40, Backend: "seq"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(sweep.SpecRequest{Experiments: []string{"slow"}, Ns: []int{4}, Trials: 40, Backend: "dense"})
	if err != nil {
		t.Fatal(err)
	}
	// Direct proof the barrier is gone: both jobs report running at the
	// same poll, which strict env-generation FIFO could never allow.
	deadline := time.Now().Add(10 * time.Second)
	for a.State() != StateRunning || b.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("jobs never ran concurrently: states %q/%q", a.State(), b.State())
		}
		time.Sleep(time.Millisecond)
	}
	<-a.Done()
	<-b.Done()
	sa, sb := a.Status(), b.Status()
	if sa.State != StateDone || sb.State != StateDone {
		t.Fatalf("jobs ended %q/%q", sa.State, sb.State)
	}
	// Timestamp overlap: each job started before the other finished.
	if !sa.Started.Before(*sb.Finished) || !sb.Started.Before(*sa.Finished) {
		t.Fatalf("status timestamps do not overlap: a=[%v,%v] b=[%v,%v]",
			sa.Started, sa.Finished, sb.Started, sb.Finished)
	}
	if sa.Backend != "seq" {
		t.Fatalf("seq job surfaces env %s, want seq", sa.Backend)
	}
	if sb.Backend != "dense" {
		t.Fatalf("dense job surfaces env %s, want dense", sb.Backend)
	}
}

// TestHeterogeneousFairness is TestTwoJobFairness across an env boundary —
// the scenario the old admission barrier outright forbade: with one shared
// slot, a small dense-backend job submitted behind a big seq-backend job
// must finish while the big job is still running, via round-robin slot
// rotation alone.
func TestHeterogeneousFairness(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 15*time.Millisecond)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	big := postJob(t, ts, `{"experiments":["slow"],"ns":[4],"trials":40,"backend":"seq"}`)
	jb, _ := m.Get(big.ID)
	deadline := time.Now().Add(10 * time.Second)
	for len(jb.Records()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("big job never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	small := postJob(t, ts, `{"experiments":["fast"],"ns":[4],"trials":2,"backend":"dense"}`)
	js, _ := m.Get(small.ID)
	select {
	case <-js.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("small dense job starved behind the big seq one")
	}
	if js.State() != StateDone {
		t.Fatalf("small job ended %q", js.State())
	}
	if n := len(jb.Records()); n >= 40 {
		t.Fatalf("big job already finished (%d records) — fairness unobservable", n)
	}
	if st := getStatus(t, ts, small.ID); st.Backend != "dense" {
		t.Fatalf("small job surfaces backend %q, want dense", st.Backend)
	}
	if _, err := m.Cancel(context.Background(), big.ID); err != nil {
		t.Fatal(err)
	}
}
