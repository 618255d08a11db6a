package sweep

import "testing"

func TestTagPath(t *testing.T) {
	for _, tc := range []struct{ path, tag, want string }{
		{"hist.jsonl", "t2", "hist.t2.jsonl"},
		{"out/hist.jsonl", "t0", "out/hist.t0.jsonl"},
		{"out.d/hist", "t1", "out.d/hist.t1"},
		{"hist", "t3", "hist.t3"},
		{"hist.jsonl", "", "hist.jsonl"},
	} {
		if got := TagPath(tc.path, tc.tag); got != tc.want {
			t.Errorf("TagPath(%q, %q) = %q, want %q", tc.path, tc.tag, got, tc.want)
		}
	}
}
