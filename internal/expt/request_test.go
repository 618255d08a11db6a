package expt

import (
	"bytes"
	"strings"
	"testing"

	"github.com/popsim/popsize/internal/sweep"
)

// TestLegacyParRequest: the request decoder still accepts the retired
// "par" key, an intra-trial worker target that never changed a result,
// and ignores it, so an old request that carries it gets the canonical
// record bytes of the same request without it.
func TestLegacyParRequest(t *testing.T) {
	canonical := func(body string) []byte {
		t.Helper()
		req, err := sweep.DecodeSpecRequest(strings.NewReader(body))
		if err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		points, err := ResolvePoints(req)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := req.Spec(points)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sweep.Run(spec, sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := sweep.CanonicalJSONL(res.Sorted())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := canonical(`{"experiments":["E1"],"quick":true,"backend":"dense"}`)
	got := canonical(`{"experiments":["E1"],"quick":true,"backend":"dense","par":2}`)
	if len(want) == 0 {
		t.Fatal("the E1 request produced no records")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("a request carrying \"par\":2 answered differently:\n%s\nwithout it:\n%s", got, want)
	}
}
