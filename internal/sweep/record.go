package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Key identifies one trial of one experiment grid point: the resume unit.
// A sweep checkpoint is keyed by (experiment, n, trial); restarting a sweep
// skips every key already present in the output file.
type Key struct {
	Experiment string `json:"experiment"`
	N          int    `json:"n"`
	Trial      int    `json:"trial"`
}

// Less orders keys by (experiment, n, trial) — the canonical order used
// when comparing a resumed sweep against an uninterrupted one.
func (k Key) Less(o Key) bool {
	if k.Experiment != o.Experiment {
		return k.Experiment < o.Experiment
	}
	if k.N != o.N {
		return k.N < o.N
	}
	return k.Trial < o.Trial
}

// ID renders the key as its wire identifier, "experiment|n|trial" — the
// event id of a record in the service's stream, which a client hands back
// (Last-Event-ID header or ?after= query) to resume from where it left
// off. Experiment labels use '/', '=', ',' and '.' freely; ParseKeyID
// splits on the *last* two '|' so even a '|' inside a label would survive.
func (k Key) ID() string {
	return fmt.Sprintf("%s|%d|%d", k.Experiment, k.N, k.Trial)
}

// ParseKeyID is the inverse of Key.ID.
func ParseKeyID(s string) (Key, error) {
	last := strings.LastIndexByte(s, '|')
	if last < 0 {
		return Key{}, fmt.Errorf("sweep: record id %q is not experiment|n|trial", s)
	}
	mid := strings.LastIndexByte(s[:last], '|')
	if mid < 0 {
		return Key{}, fmt.Errorf("sweep: record id %q is not experiment|n|trial", s)
	}
	var k Key
	var err error
	k.Experiment = s[:mid]
	if k.N, err = strconv.Atoi(s[mid+1 : last]); err != nil {
		return Key{}, fmt.Errorf("sweep: record id %q has non-numeric n: %w", s, err)
	}
	if k.Trial, err = strconv.Atoi(s[last+1:]); err != nil {
		return Key{}, fmt.Errorf("sweep: record id %q has non-numeric trial: %w", s, err)
	}
	return k, nil
}

// Record is one completed trial: one line of the sweep's JSONL output.
// Every field except WallMS is a pure function of the spec and the base
// seed, so a key-sorted record stream is reproducible byte-for-byte across
// interrupted and uninterrupted runs once wall time is masked (see
// CanonicalJSONL).
type Record struct {
	Key
	Seed    uint64  `json:"seed"`
	Backend string  `json:"backend"`
	Values  Values  `json:"values"`
	WallMS  float64 `json:"wall_ms"`
}

// Values carries a trial's named result fields. Non-finite values survive
// the JSONL round trip (encoding/json rejects them as numbers): NaN marks
// "trial did not converge" throughout the experiment suite, so it is
// encoded as the string "NaN" and restored on load.
type Values map[string]float64

// MarshalJSON encodes values with sorted keys (for stable output) and
// non-finite floats as strings.
func (v Values) MarshalJSON() ([]byte, error) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		b.Write(kb)
		b.WriteByte(':')
		x := v[k]
		switch {
		case math.IsNaN(x):
			b.WriteString(`"NaN"`)
		case math.IsInf(x, 1):
			b.WriteString(`"+Inf"`)
		case math.IsInf(x, -1):
			b.WriteString(`"-Inf"`)
		default:
			xb, err := json.Marshal(x)
			if err != nil {
				return nil, err
			}
			b.Write(xb)
		}
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (v *Values) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Values, len(raw))
	for k, r := range raw {
		var x float64
		if err := json.Unmarshal(r, &x); err == nil {
			out[k] = x
			continue
		}
		var s string
		if err := json.Unmarshal(r, &s); err != nil {
			return fmt.Errorf("sweep: value %q is neither number nor string: %s", k, r)
		}
		switch s {
		case "NaN":
			out[k] = math.NaN()
		case "+Inf":
			out[k] = math.Inf(1)
		case "-Inf":
			out[k] = math.Inf(-1)
		default:
			return fmt.Errorf("sweep: value %q has unknown string form %q", k, s)
		}
	}
	*v = out
	return nil
}

// appendLine marshals r as one JSONL line (including the trailing newline).
func (r Record) appendLine(b []byte) ([]byte, error) {
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(append(b, line...), '\n'), nil
}

// JSONL renders the record as its one checkpoint/stream line, trailing
// newline included — the exact bytes Run writes to Options.Out, which is
// also the service's wire format (GET /v1/jobs/{id}/records streams these
// lines verbatim).
func (r Record) JSONL() ([]byte, error) { return r.appendLine(nil) }

// ErrTornTail reports that a JSONL stream ends mid-line: the writer was
// killed between writing a record and its newline. The records before the
// tail are valid; the tail itself is not a record — even when it happens
// to parse as JSON — because the resume logic (LoadCheckpoint) will rerun
// and rewrite that trial.
var ErrTornTail = errors.New("sweep: torn final line (missing trailing newline)")

// terminatedLines walks the newline-terminated prefix of a JSONL stream —
// the one definition of "which bytes are records" that ReadRecords,
// LoadCheckpoint and ReadHistory share. It reads one line at a time, so
// only what fn keeps, not the raw bytes of the whole stream, is held at
// once. It calls fn once per non-blank line (surrounding whitespace
// trimmed); on an fn error the walk stops with valid still at the offset
// just past the previous good line, so that line reruns along with
// everything after it. torn reports an unterminated non-blank tail.
//
// ReadRecords and LoadCheckpoint previously disagreed here: the reader
// accepted a valid-JSON unterminated final line while the checkpoint
// classified it as torn, so an analysis pass could count a trial that a
// subsequent resume would rerun — and, with a fresh wall time or a
// re-randomized field, duplicate. Both now consume exactly the
// newline-terminated prefix.
func terminatedLines(r io.Reader, fn func(line []byte) error) (valid int64, torn bool, err error) {
	br := bufio.NewReader(r)
	for off := int64(0); ; {
		raw, err := br.ReadBytes('\n')
		line := bytes.TrimSpace(raw)
		switch {
		case err == io.EOF:
			return valid, len(line) != 0, nil
		case err != nil:
			return valid, false, err
		}
		off += int64(len(raw))
		if len(line) != 0 {
			if err := fn(line); err != nil {
				return valid, false, err
			}
		}
		valid = off
	}
}

// ReadRecords parses a JSONL record stream, tolerating blank lines. Only
// newline-terminated lines count as records; a truncated (interrupted
// mid-write) final line is reported as ErrTornTail — with the valid
// records still returned — so callers can decide whether to proceed.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	_, torn, err := terminatedLines(r, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("sweep: corrupt record %q: %w", line, err)
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

// LoadCheckpoint reads an existing sweep JSONL file into a resume map; a
// missing file is an empty checkpoint. A torn tail (the run was killed
// mid-write) is dropped: its key stays un-recorded and the trial simply
// reruns.
func LoadCheckpoint(path string) (map[Key]Record, error) {
	done, _, err := loadCheckpointTrim(path)
	return done, err
}

// loadCheckpointTrim is LoadCheckpoint plus the byte length of the valid
// newline-terminated record prefix: a resuming writer truncates the file to
// that length before appending, so a torn tail cannot shadow its rerun.
func loadCheckpointTrim(path string) (map[Key]Record, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[Key]Record{}, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	done := map[Key]Record{}
	errStop := errors.New("stop")
	valid, _, err := terminatedLines(f, func(line []byte) error {
		var rec struct {
			Record
			// Par is set only by checkpoints from before every -par value
			// shared one multiset sampling path; their batched and dense
			// trials would not match a fresh run's.
			Par json.RawMessage `json:"par"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			// Corrupt line: everything from here on reruns.
			return errStop
		}
		if rec.Par != nil {
			return fmt.Errorf(
				"sweep: checkpoint record %+v carries the \"par\" field of an older checkpoint format, whose multiset trials took a different sampling path — start fresh",
				rec.Key)
		}
		done[rec.Key] = rec.Record
		return nil
	})
	if err != nil && err != errStop {
		return nil, 0, err
	}
	return done, valid, nil
}

// CanonicalJSONL renders records in canonical form: key-sorted, wall time
// zeroed. Wall time is the single nondeterministic record field, so the
// canonical form of a resumed sweep's merged file is byte-identical to the
// canonical form of an uninterrupted run with the same spec and base seed
// (the resume-determinism guarantee, asserted by TestResumeDeterminism).
func CanonicalJSONL(recs []Record) ([]byte, error) {
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key.Less(sorted[j].Key) })
	var b []byte
	for _, r := range sorted {
		r.WallMS = 0
		var err error
		if b, err = r.appendLine(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}
