package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Name is
// "<layer>.<call>"; Op names the trial, chunk or job the call served.
// Parent is the id of the enclosing span (0 at the root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Op     string  `json:"op"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps the spans of a traced run in memory until the run ends.
// A nil *recorder records nothing, so untraced runs pay one nil check per
// call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name, op string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// recorded returns a copy of the spans; every span must have ended.
func (r *recorder) recorded() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, keyed by span id. Children that overlap one
// another (concurrent clients) are counted once.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, reach := 0.0, lo
	for _, iv := range ivs {
		a, b := math.Max(iv[0], reach), math.Min(iv[1], hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// layerSelf sums the self time of every span whose name has the given
// prefix (a layer such as "pop." or a single call such as "pop.RunTime").
func layerSelf(spans []span, self map[int]float64, prefix string) float64 {
	total := 0.0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			total += self[s.ID]
		}
	}
	return total
}

// durations returns the durations of the spans with exactly this name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// spanCost measures what recording one span costs, so a traced run can
// report its own overhead without a second, untraced run to compare with
// (the two runs' noise would swamp a difference this small).
func spanCost() float64 {
	const k = 4096
	r := newRecorder()
	start := time.Now()
	for i := 0; i < k; i++ {
		r.end(r.begin("trace.calibrate", "", 0))
	}
	return time.Since(start).Seconds() / k
}

// writeSpans writes the spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean is the arithmetic mean of xs; 0 for none. It is the gated latency
// statistic because, unlike the median, it does not jump between the
// clusters of a mix whose samples span orders of magnitude, such as the
// daemon's job latencies.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// tailPercentiles are the candidates tailPercentile picks from.
var tailPercentiles = []float64{0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5}

// tailPercentile returns the highest of tailPercentiles that has at least
// ten of the n samples above its interpolation position, and how many lie
// above it; ok is false when not even the median has ten.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		beyond := n - 1 - int(math.Floor(p*float64(n-1)))
		if n > 0 && beyond >= 10 {
			return p, beyond, true
		}
	}
	return 0, 0, false
}

// ratio is a/b, or 0 when the base b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
