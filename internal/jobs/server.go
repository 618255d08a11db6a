package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"github.com/popsim/popsize/internal/sweep"
)

// Server exposes the Manager over HTTP/JSON — the popsimd wire API:
//
//	POST   /v1/jobs               submit a sweep.SpecRequest (body ≤ 1 MiB,
//	                              else 413); 201 + status
//	GET    /v1/jobs               list job statuses, newest first
//	GET    /v1/jobs/{id}          one job's status
//	GET    /v1/jobs/{id}/records  stream JSONL records (x-ndjson); resumes
//	                              from Last-Event-ID / ?after=<key id>;
//	                              ?follow=0 returns the current snapshot
//	GET    /v1/jobs/{id}/summary  bootstrap-CI aggregation (json or ?format=csv)
//	DELETE /v1/jobs/{id}          cancel; returns the final status
//	GET    /healthz               liveness
//
// Record lines on the wire are exactly the sweep checkpoint lines
// (Record.JSONL), so a client can pipe the stream straight back into any
// tool that reads sweep JSONL.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wires the routes.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/records", s.records)
	s.mux.HandleFunc("GET /v1/jobs/{id}/summary", s.summary)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the service's error shape, {"error": "..."}.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// maxSubmitBytes caps a POST /v1/jobs body. A spec request is a few
// hundred bytes, so a body near the cap is malformed or hostile, and the
// decoder must not buffer it.
const maxSubmitBytes = 1 << 20

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	req, err := sweep.DecodeSpecRequest(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	j, err := s.m.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrInternal) {
			code = http.StatusInternalServerError
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusCreated, j.Status())
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.List()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// lookup resolves {id}, writing the 404 itself when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("jobs: no job %s", id))
	}
	return j, ok
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// records streams the job's record lines as application/x-ndjson. The
// stream resumes after the record named by the Last-Event-ID header or the
// ?after= query parameter (a Key.ID, "experiment|n|trial"); an unknown id
// replays from the start and the client dedups by key. By default the
// stream follows the job until it reaches a terminal state; ?follow=0
// returns only the records completed so far.
func (s *Server) records(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	after := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("after"); q != "" {
		after = q
	}
	idx := 0
	if after != "" {
		k, err := sweep.ParseKeyID(after)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		idx = j.IndexAfter(k)
	}
	follow := true
	if q := r.URL.Query().Get("follow"); q == "0" || q == "false" {
		follow = false
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	for {
		recs, updated, st := j.RecordsFrom(idx)
		for _, rec := range recs {
			line, err := rec.JSONL()
			if err != nil {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		idx += len(recs)
		if fl != nil {
			fl.Flush()
		}
		if !follow || st.Terminal() {
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

// jsonFloat marshals like sweep.Values: non-finite values become the
// strings "NaN"/"+Inf"/"-Inf" instead of breaking the whole response.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	x := float64(f)
	switch {
	case math.IsNaN(x):
		return []byte(`"NaN"`), nil
	case math.IsInf(x, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(x, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(x)
}

// summaryRow is one aggregated (experiment, n, field) cell on the wire.
type summaryRow struct {
	Experiment string    `json:"experiment"`
	N          int       `json:"n"`
	Field      string    `json:"field"`
	Trials     int       `json:"trials"`
	Dropped    int       `json:"dropped"`
	Mean       jsonFloat `json:"mean"`
	Std        jsonFloat `json:"std"`
	CILo       jsonFloat `json:"ci_lo"`
	CIHi       jsonFloat `json:"ci_hi"`
}

// summary aggregates the records completed so far: per-(experiment, n,
// field) mean/stddev with a 95% bootstrap CI, seeded from the job's base
// seed so the same record set always yields the same summary. ?format=csv
// renders the human-readable table instead; ?resamples= overrides the
// bootstrap resample count.
func (s *Server) summary(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	resamples := sweep.BootstrapResamples
	if q := r.URL.Query().Get("resamples"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: bad resamples %q", q))
			return
		}
		resamples = v
	}
	recs := j.Records()
	seed := j.Request().Seed
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		aggs := sweep.Aggregate(recs, resamples, seed)
		groups := make([]sweep.Group, 0, len(aggs))
		for g := range aggs {
			groups = append(groups, g)
		}
		sort.Slice(groups, func(i, k int) bool {
			a, b := groups[i], groups[k]
			if a.Experiment != b.Experiment {
				return a.Experiment < b.Experiment
			}
			if a.N != b.N {
				return a.N < b.N
			}
			return a.Field < b.Field
		})
		rows := make([]summaryRow, len(groups))
		for i, g := range groups {
			a := aggs[g]
			rows[i] = summaryRow{
				Experiment: g.Experiment, N: g.N, Field: g.Field,
				Trials: a.Trials, Dropped: a.Dropped,
				Mean: jsonFloat(a.Mean), Std: jsonFloat(a.Std),
				CILo: jsonFloat(a.CILo), CIHi: jsonFloat(a.CIHi),
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id":        j.ID(),
			"state":     j.State(),
			"records":   len(recs),
			"resamples": resamples,
			"groups":    rows,
		})
	case "csv":
		t := sweep.SummaryTable(recs, resamples, seed)
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, t.CSV())
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: unknown format %q (json or csv)", format))
	}
}

// cancel stops the job (pending: withdrawn; running: stops between units,
// which completes within about one unit's runtime) and returns the final
// status. Canceling a terminal job is a no-op returning its status.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j2, err := s.m.Cancel(r.Context(), j.ID())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, j2.Status())
}
