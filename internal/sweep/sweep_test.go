package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"github.com/popsim/popsize/internal/pop"
)

// testSpec builds a small two-experiment grid whose trial function is a
// pure function of (n, trial, seed) — deterministic, like every real
// experiment trial, but cheap.
func testSpec(baseSeed uint64) Spec {
	run := func(n int) TrialFunc {
		return func(tr int, seed uint64) Values {
			r := rand.New(rand.NewPCG(seed, 17))
			v := Values{
				"x":    r.Float64() * float64(n),
				"step": float64(tr),
			}
			if tr%5 == 4 { // a sprinkling of "did not converge" trials
				v["x"] = math.NaN()
			}
			return v
		}
	}
	var points []Point
	for _, n := range []int{64, 256} {
		points = append(points,
			Point{Experiment: "EA", N: n, Trials: 7, Run: run(n)},
			Point{Experiment: "EB", N: n, Trials: 3, Run: run(n)})
	}
	return Spec{Points: points, BaseSeed: baseSeed, Workers: 4}
}

func TestUnitsInterleaveAndSeedsDistinct(t *testing.T) {
	spec := testSpec(1)
	units := spec.Units()
	if want := 2 * (7 + 3); len(units) != want {
		t.Fatalf("units = %d, want %d", len(units), want)
	}
	// Round-robin: the first four units are trial 0 of each point.
	for i := 0; i < 4; i++ {
		if units[i].Trial != 0 {
			t.Errorf("unit %d is trial %d, want 0 (round-robin)", i, units[i].Trial)
		}
	}
	seen := map[uint64]Key{}
	for _, u := range units {
		if prev, ok := seen[u.Seed]; ok {
			t.Errorf("units %+v and %+v share seed %#x", prev, u.Key, u.Seed)
		}
		seen[u.Seed] = u.Key
		if u.Seed != pop.TrialSeed(1, fmt.Sprintf("%s#n=%d", u.Experiment, u.N), u.Trial) {
			t.Errorf("unit %+v seed not derived via pop.TrialSeed", u.Key)
		}
	}
}

func TestRunCollectsAllRecords(t *testing.T) {
	spec := testSpec(3)
	var buf bytes.Buffer
	var streamed atomic.Int64
	var mu sync.Mutex
	res, err := Run(spec, Options{Out: &syncWriter{w: &buf, mu: &mu}, OnRecord: func(Record) { streamed.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 20 || streamed.Load() != 20 {
		t.Fatalf("records = %d, streamed = %d, want 20", res.Len(), streamed.Load())
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("JSONL lines = %d, want 20", len(recs))
	}
	// Round-trip fidelity, including the NaN encoding.
	for _, rec := range recs {
		got, ok := res.Get(rec.Experiment, rec.N, rec.Trial)
		if !ok {
			t.Fatalf("record %+v missing from results", rec.Key)
		}
		for k, v := range got.Values {
			if r := rec.Values[k]; r != v && !(math.IsNaN(r) && math.IsNaN(v)) {
				t.Errorf("%+v field %q: file %v, memory %v", rec.Key, k, r, v)
			}
		}
	}
	// Values() returns trial-ordered fields.
	xs := res.Values("EA", 64, "step")
	if len(xs) != 7 {
		t.Fatalf("Values len = %d, want 7", len(xs))
	}
	for i, x := range xs {
		if x != float64(i) {
			t.Errorf("Values[%d] = %v, want %d (trial order)", i, x, i)
		}
	}
}

type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestResumeDeterminism is the subsystem's acceptance test: a sweep killed
// mid-run (Options.Limit) and resumed with the same spec and base seed
// yields a merged JSONL whose canonical form (key-sorted, wall time masked
// — the one nondeterministic field) is byte-identical to an uninterrupted
// run's.
func TestResumeDeterminism(t *testing.T) {
	dir := t.TempDir()
	unbroken := filepath.Join(dir, "unbroken.jsonl")
	broken := filepath.Join(dir, "broken.jsonl")

	runFlags := func(path string, resume bool, limit int) {
		t.Helper()
		spec := testSpec(9)
		opt := Options{Limit: limit}
		if resume {
			done, validLen, err := loadCheckpointTrim(path)
			if err != nil {
				t.Fatal(err)
			}
			opt.Done = done
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.Truncate(validLen); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Seek(validLen, 0); err != nil {
				t.Fatal(err)
			}
			opt.Out = f
		} else {
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			opt.Out = f
		}
		if _, err := Run(spec, opt); err != nil {
			t.Fatal(err)
		}
	}

	runFlags(unbroken, false, 0)
	runFlags(broken, false, 7) // "killed" after 7 trials
	// Simulate a torn final line from the kill.
	data, err := os.ReadFile(broken)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(broken, append(data, []byte(`{"experiment":"EA","n":64,`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	runFlags(broken, true, 0) // resume to completion

	canon := func(path string) []byte {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		recs, err := ReadRecords(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CanonicalJSONL(recs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := canon(unbroken), canon(broken)
	if !bytes.Equal(a, b) {
		t.Errorf("resumed sweep diverged from uninterrupted run:\n--- uninterrupted ---\n%s--- resumed ---\n%s", a, b)
	}
	if len(bytes.Split(bytes.TrimSpace(a), []byte("\n"))) != 20 {
		t.Errorf("canonical stream has wrong record count:\n%s", a)
	}
}

// TestResumeRejectsForeignCheckpoint: resuming under a different base
// seed, backend or checkpoint format must fail loudly instead of mixing
// random streams.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	if _, err := Run(testSpec(1), Options{Out: &syncWriter{w: &buf, mu: &mu}}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	done := map[Key]Record{}
	for _, r := range recs {
		done[r.Key] = r
	}
	if _, err := Run(testSpec(2), Options{Done: done}); err == nil {
		t.Error("checkpoint from base seed 1 accepted by a base-seed-2 sweep")
	}
	// Same base seed but a different simulation backend must also be
	// rejected: the records would describe a different engine's runs.
	other := testSpec(1)
	other.Backend = pop.Batched
	if _, err := Run(other, Options{Done: done}); err == nil {
		t.Error("auto-backend checkpoint accepted by a batch-backend sweep")
	}
	// A record carrying "par" comes from the older checkpoint format whose
	// multiset trials took another sampling path: resume must refuse it.
	legacy := bytes.Replace(buf.Bytes(), []byte(`"values":`), []byte(`"par":4,"values":`), 1)
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "start fresh") {
		t.Errorf("checkpoint record with a \"par\" field: err = %v, want a start-fresh error", err)
	}
	if _, _, err := OpenCheckpoint(path, true); err == nil {
		t.Error("-resume opened a checkpoint whose record carries \"par\"")
	}
}

// engineSpec is a one-point grid whose trials run a dense engine built
// with WithParallelism(par), a no-op kept for source compatibility. At
// n = 2²⁴ its batches hold ~2 600 receivers.
func engineSpec(par int) Spec {
	vote := func(a, b int, r *rand.Rand) (int, int) {
		if a != b && r.IntN(2) == 0 {
			return b, b
		}
		return a, b
	}
	run := func(_ int, seed uint64) Values {
		e := pop.NewDenseFromCounts([]int{0, 1, 2}, []int64{1 << 23, 1 << 22, 1 << 22}, vote,
			pop.WithSeed(seed), pop.WithParallelism(par))
		e.Run(1 << 21)
		return Values{"zeros": float64(e.Count(func(s int) bool { return s == 0 }))}
	}
	return Spec{Points: []Point{{Experiment: "EP", N: 1 << 24, Trials: 6, Run: run}}, BaseSeed: 1, Workers: 2}
}

// TestResumeAcrossPar: the worker target never moved a trajectory, so a
// checkpoint whose trials were built at one WithParallelism value resumes
// under another and the finished sweep's canonical bytes equal an
// uninterrupted run's.
func TestResumeAcrossPar(t *testing.T) {
	full, err := Run(engineSpec(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := CanonicalJSONL(full.Sorted())
	if err != nil {
		t.Fatal(err)
	}
	part, err := Run(engineSpec(0), Options{Limit: 3})
	if err != nil || part.Len() != 3 {
		t.Fatalf("partial run: %d records, err %v; want 3", part.Len(), err)
	}
	done := map[Key]Record{}
	for _, r := range part.Sorted() {
		done[r.Key] = r
	}
	resumed, err := Run(engineSpec(4), Options{Done: done})
	if err != nil {
		t.Fatalf("-par 0 checkpoint rejected by a -par 4 sweep: %v", err)
	}
	got, err := CanonicalJSONL(resumed.Sorted())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed under -par 4:\n%s\nuninterrupted at -par 0:\n%s", got, want)
	}
}

func TestLoadCheckpointTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.jsonl")

	if done, err := LoadCheckpoint(filepath.Join(dir, "missing.jsonl")); err != nil || len(done) != 0 {
		t.Errorf("missing file: done=%v err=%v, want empty, nil", done, err)
	}

	content := `{"experiment":"E1","n":10,"trial":0,"seed":5,"backend":"auto","values":{"x":1.5,"y":"NaN"},"wall_ms":1}` + "\n" +
		"\n" +
		`{"experiment":"E1","n":10,"trial":1,"seed":6,"backend":"auto","values":{"x":2},"wall_ms":1}` + "\n" +
		`{"experiment":"E1","n":10,"tr` // torn tail
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	done, validLen, err := loadCheckpointTrim(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("done = %d records, want 2 (torn tail dropped)", len(done))
	}
	if !math.IsNaN(done[Key{"E1", 10, 0}].Values["y"]) {
		t.Error("NaN value did not round-trip through the checkpoint")
	}
	if want := int64(len(content) - len(`{"experiment":"E1","n":10,"tr`)); validLen != want {
		t.Errorf("validLen = %d, want %d", validLen, want)
	}
}

// TestReadRecordsStream: the line-by-line reader takes lines longer than
// its read buffer, blank lines between records and a stream delivered a
// few bytes per Read, and it stops at the first corrupt record with the
// records before it.
func TestReadRecordsStream(t *testing.T) {
	long := `{"experiment":"` + strings.Repeat("x", 10_000) + `","n":10,"trial":0,"seed":5,"backend":"auto","values":{"x":1},"wall_ms":1}`
	short := `{"experiment":"E1","n":10,"trial":1,"seed":6,"backend":"auto","values":{"x":2},"wall_ms":1}`
	recs, err := ReadRecords(iotest.HalfReader(strings.NewReader(long + "\n \n\n" + short + "\n\t\n")))
	if err != nil || len(recs) != 2 || len(recs[0].Experiment) != 10_000 || recs[1].Trial != 1 {
		t.Fatalf("ReadRecords = %d records, %v; want the long and the short record", len(recs), err)
	}
	recs, err = ReadRecords(strings.NewReader(short + "\n{oops}\n" + short + "\n"))
	if err == nil || !strings.Contains(err.Error(), "corrupt record") || len(recs) != 1 {
		t.Fatalf("corrupt middle line: %d records, %v; want 1 and a corrupt-record error", len(recs), err)
	}
}

// TestTornTailReaderCheckpointAgreement is the regression test for the
// reader/checkpoint divergence: a file whose final line is complete JSON
// but lacks its newline (the writer died between the record and the '\n').
// ReadRecords used to accept that line as a record while LoadCheckpoint
// classified it as torn and scheduled a rerun — so an analysis pass and a
// resume disagreed about which trials exist. Both must now drop it, and
// ReadRecords must say why (ErrTornTail).
func TestTornTailReaderCheckpointAgreement(t *testing.T) {
	line0 := `{"experiment":"E1","n":10,"trial":0,"seed":5,"backend":"auto","values":{"x":1},"wall_ms":1}`
	line1 := `{"experiment":"E1","n":10,"trial":1,"seed":6,"backend":"auto","values":{"x":2},"wall_ms":1}`
	content := line0 + "\n" + line1 // valid JSON, no trailing newline

	recs, err := ReadRecords(strings.NewReader(content))
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("ReadRecords err = %v, want ErrTornTail", err)
	}
	if len(recs) != 1 || recs[0].Trial != 0 {
		t.Fatalf("ReadRecords = %d records (first trial %d), want only the terminated line",
			len(recs), recs[0].Trial)
	}

	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	done, validLen, err := loadCheckpointTrim(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(recs) {
		t.Fatalf("checkpoint has %d records, reader %d — the divergence is back", len(done), len(recs))
	}
	if _, ok := done[Key{"E1", 10, 1}]; ok {
		t.Error("checkpoint kept the unterminated trial")
	}
	if want := int64(len(line0) + 1); validLen != want {
		t.Errorf("validLen = %d, want %d", validLen, want)
	}

	// A properly terminated file reads cleanly and completely.
	recs, err = ReadRecords(strings.NewReader(content + "\n"))
	if err != nil || len(recs) != 2 {
		t.Fatalf("terminated file: %d records, err %v, want 2, nil", len(recs), err)
	}
}

func TestAggregate(t *testing.T) {
	recs := []Record{
		{Key: Key{"E1", 100, 0}, Values: Values{"err": 1}},
		{Key: Key{"E1", 100, 1}, Values: Values{"err": 3}},
		{Key: Key{"E1", 100, 2}, Values: Values{"err": math.NaN()}},
		{Key: Key{"E2", 100, 0}, Values: Values{"t": 7}},
	}
	aggs := Aggregate(recs, 200, 1)
	a := aggs[Group{"E1", 100, "err"}]
	if a.Trials != 2 || a.Dropped != 1 {
		t.Errorf("E1 agg trials=%d dropped=%d, want 2, 1", a.Trials, a.Dropped)
	}
	if a.Mean != 2 || math.Abs(a.Std-math.Sqrt2) > 1e-12 {
		t.Errorf("E1 agg mean=%v std=%v, want 2, sqrt(2)", a.Mean, a.Std)
	}
	if a.CILo < 1 || a.CIHi > 3 || a.CILo > a.CIHi {
		t.Errorf("bootstrap CI [%v, %v] outside sample range [1, 3]", a.CILo, a.CIHi)
	}
	// Deterministic given the same seed.
	if b := Aggregate(recs, 200, 1)[Group{"E1", 100, "err"}]; b != a {
		t.Errorf("Aggregate not deterministic: %+v vs %+v", a, b)
	}
	tbl := SummaryTable(recs, 200, 1)
	if len(tbl.Rows) != 2 {
		t.Errorf("summary rows = %d, want 2", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Markdown(), "E1") {
		t.Error("summary markdown missing experiment id")
	}
}

// TestAggregateDropsInf is the regression test for the Inf-poisoning bug:
// Aggregate documented Trials as "finite contributions" but dropped only
// NaN, so one +Inf (e.g. a ratio field with a zero denominator) poisoned
// Mean/Std and both bootstrap CI bounds for the whole group. ±Inf must be
// dropped alongside NaN.
func TestAggregateDropsInf(t *testing.T) {
	recs := []Record{
		{Key: Key{"E1", 100, 0}, Values: Values{"ratio": 1}},
		{Key: Key{"E1", 100, 1}, Values: Values{"ratio": 2}},
		{Key: Key{"E1", 100, 2}, Values: Values{"ratio": math.Inf(1)}},
		{Key: Key{"E2", 100, 0}, Values: Values{"ratio": math.Inf(-1)}},
	}
	a := Aggregate(recs, 200, 1)[Group{"E1", 100, "ratio"}]
	if a.Trials != 2 || a.Dropped != 1 {
		t.Errorf("trials=%d dropped=%d, want 2, 1", a.Trials, a.Dropped)
	}
	if a.Mean != 1.5 {
		t.Errorf("mean = %v, want 1.5 (+Inf must not poison the group)", a.Mean)
	}
	if math.IsInf(a.Std, 0) || math.IsNaN(a.Std) {
		t.Errorf("std = %v, want finite", a.Std)
	}
	if math.IsInf(a.CILo, 0) || math.IsInf(a.CIHi, 0) ||
		a.CILo < 1 || a.CIHi > 2 || a.CILo > a.CIHi {
		t.Errorf("bootstrap CI [%v, %v], want finite within [1, 2]", a.CILo, a.CIHi)
	}
	// A group with only non-finite values aggregates to NaN moments, not Inf.
	b := Aggregate(recs, 200, 1)[Group{"E2", 100, "ratio"}]
	if b.Trials != 0 || b.Dropped != 1 || !math.IsNaN(b.Mean) {
		t.Errorf("all-Inf group: %+v, want 0 trials, 1 dropped, NaN mean", b)
	}
}

// TestAggregateSingleTrialCI is the regression test for the degenerate
// bootstrap interval: with exactly one finite contribution every resample
// is that one point, so the old code reported CILo == CIHi == Mean — a
// zero-width "95% interval" that reads as perfect certainty from a single
// trial. Both bounds must be NaN below two finite trials, while the mean
// itself (one point does determine a mean) stays real.
func TestAggregateSingleTrialCI(t *testing.T) {
	recs := []Record{
		{Key: Key{"E1", 100, 0}, Values: Values{"t": 7}},
		{Key: Key{"E1", 100, 1}, Values: Values{"t": math.NaN()}},
	}
	a := Aggregate(recs, 200, 1)[Group{"E1", 100, "t"}]
	if a.Trials != 1 || a.Dropped != 1 {
		t.Fatalf("trials=%d dropped=%d, want 1, 1", a.Trials, a.Dropped)
	}
	if a.Mean != 7 || a.Std != 0 {
		t.Errorf("mean=%v std=%v, want 7, 0", a.Mean, a.Std)
	}
	if !math.IsNaN(a.CILo) || !math.IsNaN(a.CIHi) {
		t.Errorf("CI = [%v, %v], want NaN bounds (one trial has no resampling spread)", a.CILo, a.CIHi)
	}
	// Two finite trials are the minimum for a real interval.
	recs = append(recs, Record{Key: Key{"E1", 100, 2}, Values: Values{"t": 9}})
	a = Aggregate(recs, 200, 1)[Group{"E1", 100, "t"}]
	if math.IsNaN(a.CILo) || math.IsNaN(a.CIHi) || a.CILo > a.CIHi {
		t.Errorf("two-trial CI = [%v, %v], want finite ordered bounds", a.CILo, a.CIHi)
	}
}
