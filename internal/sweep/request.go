package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/popsim/popsize/internal/pop"
)

// SpecRequest is the serializable form of a sweep submission: everything a
// caller chooses about a run — which experiments, the size grid, trial
// counts, engine backend, worker budget, and the base seed — in one
// JSON-codable struct. It is the single source of truth for those knobs'
// defaults and validation messages: the command-line surface (Flags
// embeds it, binding -backend/-workers/-seed straight onto its fields)
// and the popsimd daemon's POST /v1/jobs body are the same struct, so a
// job submitted over HTTP and a sweep launched from a shell are the same
// request by construction.
//
// A request does not name concrete work: a resolver (internal/expt's
// Resolve for the reproduction suite) turns the experiment selection into
// sweep points, and Spec then binds those points to the request's knobs.
type SpecRequest struct {
	// Experiments selects experiment ids (expt.DefaultDefs' F2/E1–E18/A1–A3
	// plus the zoo's E-* defs); empty means the whole suite. Unknown names
	// fail resolution with the shared UnknownName error listing what does
	// exist.
	Experiments []string `json:"experiments,omitempty"`
	// Ns overrides the suite's primary population-size grid (each entry
	// needs at least 2 agents); empty keeps the sizing preset.
	Ns []int `json:"ns,omitempty"`
	// Trials overrides the per-point trial count; 0 keeps the preset.
	// It may not exceed MaxUnits.
	Trials int `json:"trials,omitempty"`
	// Quick selects the -quick smoke sizing preset.
	Quick bool `json:"quick,omitempty"`
	// Backend selects the simulation engine: auto|seq|batch|dense
	// (default auto). seq refuses ns entries above MaxSeqN.
	Backend string `json:"backend,omitempty"`
	// Workers bounds the sweep's worker pool; 0 means GOMAXPROCS (or, in
	// the daemon, the shared pool size).
	Workers int `json:"workers,omitempty"`
	// Seed is the base random seed; per-trial seeds derive from it
	// (default 1, matching the -seed flag).
	Seed uint64 `json:"seed,omitempty"`
}

// MaxSeqN caps the population sizes a request may run on the seq
// backend at pop.MaxAgentArray. The sequential engine holds one array
// element per agent, and an allocation beyond the machine's memory is a
// fatal runtime error that no recover catches — one such job would kill
// the daemon, and its restart would requeue it. The multiset backends
// hold O(live states) and take larger sizes.
const MaxSeqN = pop.MaxAgentArray

// MaxUnits caps the trials one sweep may run, summed over its points.
// Spec.Units allocates one Unit per trial before the first one runs, so
// an unbounded count is an allocation beyond memory, the same fatal error
// MaxSeqN guards against. The full default suite is 1156 units (the
// -quick suite 336), so the cap leaves room for about 900 times its
// trials.
const MaxUnits = 1 << 20

// CheckUnits refuses points whose trials sum above MaxUnits.
func CheckUnits(points []Point) error {
	total := 0
	for _, p := range points {
		total += p.Trials
		if total > MaxUnits {
			return fmt.Errorf("sweep: the request's points sum to more than the cap of %d trials (MaxUnits); lower trials or ns", MaxUnits)
		}
	}
	return nil
}

// SetDefaults fills the zero-valued knobs whose documented default is not
// the zero value, mirroring the flag defaults exactly.
func (r *SpecRequest) SetDefaults() {
	if r.Backend == "" {
		r.Backend = "auto"
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// ParseBackend parses the request's backend selection.
func (r *SpecRequest) ParseBackend() (pop.Backend, error) {
	if r.Backend == "" {
		return pop.ParseBackend("auto")
	}
	return pop.ParseBackend(r.Backend)
}

// Validate checks every knob that can be checked without a resolver (the
// experiment selection is validated against the catalog at resolve time).
func (r *SpecRequest) Validate() error {
	be, err := r.ParseBackend()
	if err != nil {
		return err
	}
	if r.Trials < 0 {
		return fmt.Errorf("sweep: request needs trials >= 0 (got %d)", r.Trials)
	}
	if r.Trials > MaxUnits {
		return fmt.Errorf("sweep: request trials %d is above the cap of %d trials per sweep (MaxUnits)", r.Trials, MaxUnits)
	}
	if r.Workers < 0 {
		return fmt.Errorf("sweep: request needs workers >= 0 (got %d)", r.Workers)
	}
	seen := map[int]bool{}
	for _, n := range r.Ns {
		if n < 2 {
			return fmt.Errorf("sweep: request ns entry %d: population sizes need at least 2 agents", n)
		}
		if be == pop.Sequential && n > MaxSeqN {
			return fmt.Errorf("sweep: request ns entry %d is above the seq backend's agent-array cap of %d agents (MaxSeqN); run it on batch, dense or auto", n, MaxSeqN)
		}
		if seen[n] {
			return fmt.Errorf("sweep: request ns entry %d repeats — duplicate sizes would double-run every trial under identical record keys", n)
		}
		seen[n] = true
	}
	return nil
}

// Spec binds resolved points to the request's knobs, producing the
// runnable sweep spec.
func (r SpecRequest) Spec(points []Point) (Spec, error) {
	if err := r.Validate(); err != nil {
		return Spec{}, err
	}
	be, err := r.ParseBackend()
	if err != nil {
		return Spec{}, err
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	return Spec{
		Points:   points,
		BaseSeed: seed,
		Backend:  be,
		Workers:  r.Workers,
	}, nil
}

// DecodeSpecRequest reads one JSON-encoded request, rejecting unknown
// fields (a typoed knob in a job submission must fail loudly, not silently
// run the default suite), then applies defaults and validates. This is the
// daemon's POST body decoder.
//
// It still accepts the retired "par" key, an intra-trial worker target
// that never changed a result, and ignores it: an old request gets the
// records it always got. A negative value is refused as it always was.
func DecodeSpecRequest(rd io.Reader) (SpecRequest, error) {
	var body struct {
		SpecRequest
		Par int `json:"par"`
	}
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		return SpecRequest{}, fmt.Errorf("sweep: decoding spec request: %w", err)
	}
	// A second document in the body is almost certainly a client bug.
	if dec.More() {
		return SpecRequest{}, fmt.Errorf("sweep: spec request body holds more than one JSON document")
	}
	if body.Par < 0 {
		return SpecRequest{}, fmt.Errorf("sweep: request needs par >= 0 (got %d)", body.Par)
	}
	req := body.SpecRequest
	req.SetDefaults()
	if err := req.Validate(); err != nil {
		return SpecRequest{}, err
	}
	return req, nil
}
