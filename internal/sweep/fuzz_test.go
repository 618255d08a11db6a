package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// FuzzValuesRoundTrip: Values survives marshal → unmarshal exactly for
// arbitrary field names and float64 values, including the non-finite
// encodings (NaN/±Inf as strings — encoding/json rejects them as numbers)
// that carry "trial did not converge" markers through sweep JSONL files.
func FuzzValuesRoundTrip(f *testing.F) {
	f.Add("err", 1.5, "t", math.Inf(1))
	f.Add("x", math.NaN(), "", math.Inf(-1))
	f.Add("a", 0.0, "a", -0.0)
	f.Add("big", math.MaxFloat64, "tiny", math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, k1 string, v1 float64, k2 string, v2 float64) {
		// encoding/json rewrites invalid UTF-8 in strings to U+FFFD; real
		// field names are ASCII identifiers, so normalize rather than
		// report that stdlib behavior as a round-trip failure.
		k1, k2 = strings.ToValidUTF8(k1, "?"), strings.ToValidUTF8(k2, "?")
		in := Values{k1: v1, k2: v2}
		blob, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %v: %v", in, err)
		}
		var out Values
		if err := json.Unmarshal(blob, &out); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		if len(out) != len(in) {
			t.Fatalf("round trip changed field count: %v -> %v", in, out)
		}
		for k, v := range in {
			got, ok := out[k]
			if !ok {
				t.Fatalf("field %q lost in round trip: %s", k, blob)
			}
			if math.IsNaN(v) {
				if !math.IsNaN(got) {
					t.Fatalf("field %q: NaN became %v", k, got)
				}
				continue
			}
			// Exact float64 identity, including -0 vs +0 and ±Inf.
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("field %q: %v (bits %#x) became %v (bits %#x)",
					k, v, math.Float64bits(v), got, math.Float64bits(got))
			}
		}
		// Marshaling is canonical: a second round trip is byte-identical.
		blob2, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(blob2) {
			t.Fatalf("marshal not canonical: %s then %s", blob, blob2)
		}
	})
}

// FuzzDecodeSpecRequest feeds arbitrary bytes to the daemon's request
// decoder: it must return an error, or a request that passes Validate and
// survives a marshal → decode round trip with identical encoding.
func FuzzDecodeSpecRequest(f *testing.F) {
	f.Add([]byte(`{"experiments":["F2","E6"],"ns":[1024,4096],"trials":4,"quick":true,"backend":"dense","workers":2,"par":3,"seed":9}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"ns":[]}`))
	f.Add([]byte(`{"ns":[16,16]}`))
	f.Add([]byte(`{"trials":-1}`))
	f.Add([]byte(`{"backend":"quantum"}`))
	f.Add([]byte(`{"seed":18446744073709551615}`))
	f.Add([]byte(`{"experimentz":["F2"]}`))
	f.Add([]byte(`{} {}`))
	f.Add([]byte(`{"experiments":["\u003c\ud800"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSpecRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request %+v fails Validate: %v", req, err)
		}
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal %+v: %v", req, err)
		}
		again, err := DecodeSpecRequest(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-decoding %s: %v", blob, err)
		}
		blob2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("round trip changed the request: %s then %s", blob, blob2)
		}
	})
}

// FuzzReadRecords feeds arbitrary bytes to the JSONL record reader that
// analysis passes and resumes run over checkpoint files: it must return
// records or an error, never panic. The records it accepts, torn tail or
// not, must re-encode and read back with the same keys, seeds and
// backends.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte(`{"experiment":"E1","n":10,"trial":0,"seed":5,"backend":"auto","values":{"x":1.5,"y":"NaN"},"wall_ms":1}` + "\n"))
	f.Add([]byte("\n \n"))
	f.Add([]byte(`{"experiment":"E1","n":10,"trial":1,"seed":6,"backend":"auto","values":{"x":2},"wall_ms":1}` + "\n" + `{"experiment":"E1","n":10,"tr`))
	f.Add([]byte(`{"values":{"x":"Inf","y":"-Inf"}}` + "\n" + `{"n":-1,"trial":1e300}` + "\n"))
	f.Add([]byte(`{"values":{"x":"bogus"}}` + "\n"))
	f.Add([]byte("null\n[1,2]\n"))
	f.Add([]byte(`{"experiment":"\xff\u0000","seed":18446744073709551615,"par":3}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrTornTail) {
			return
		}
		var buf []byte
		for _, r := range recs {
			if buf, err = r.appendLine(buf); err != nil {
				t.Fatalf("accepted record %+v does not re-encode: %v", r.Key, err)
			}
		}
		again, err := ReadRecords(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("re-encoded records do not read back: %v\n%s", err, buf)
		}
		if len(again) != len(recs) {
			t.Fatalf("read back %d of %d records", len(again), len(recs))
		}
		for i, r := range recs {
			if g := again[i]; g.Key != r.Key || g.Seed != r.Seed || g.Backend != r.Backend {
				t.Fatalf("record %d changed in a round trip: %+v -> %+v", i, r, g)
			}
		}
	})
}
