package telemetry

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"titant/internal/rng"
)

func TestHistogramRecordAndQuantiles(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	for i := 0; i < 98; i++ {
		h.Record(500 * time.Microsecond)
	}
	h.Record(5 * time.Millisecond)
	h.Record(250 * time.Millisecond) // overflow bucket
	counts, total := h.Snapshot()
	if total != 100 || h.Total() != 100 {
		t.Fatalf("total = %d / %d", total, h.Total())
	}
	if counts[0] != 98 || counts[1] != 1 || counts[3] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if h.Max() != 250*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	wantSum := 98*500*time.Microsecond + 5*time.Millisecond + 250*time.Millisecond
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	if p50 := h.Quantile(0.50); p50 != time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 10*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if p100 := h.Quantile(1); p100 != h.Max() {
		t.Fatalf("p100 = %v", p100)
	}
	if empty := Quantile(h.bounds, make([]int64, 4), 0, 0, 0.99); empty != 0 {
		t.Fatalf("empty quantile = %v", empty)
	}
}

func TestHistogramSanitisesBounds(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Second, -1, time.Millisecond, time.Second, 0})
	if len(h.bounds) != 2 || h.bounds[0] != time.Millisecond || h.bounds[1] != time.Second {
		t.Fatalf("bounds = %v", h.bounds)
	}
	if h := NewHistogram(nil); len(h.bounds) != len(DefaultBounds()) {
		t.Fatalf("default bounds = %v", h.bounds)
	}
}

// TestMergedQuantileEqualsPopulation is the histogram-merge drift
// property test: a random population scattered across a random number
// of shard histograms, summed bucket-wise by HistSnapshot.Add, must yield exactly
// the quantiles of the same population recorded into one histogram.
// This is what licenses the router and the sharded engine to recompute
// fleet percentiles from summed raw buckets.
func TestMergedQuantileEqualsPopulation(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		nShards := 1 + r.Intn(8)
		shards := make([]*Histogram, nShards)
		for i := range shards {
			shards[i] = NewHistogram(nil)
		}
		whole := NewHistogram(nil)
		n := 1 + r.Intn(5000)
		for i := 0; i < n; i++ {
			// Log-uniform latencies spanning 1µs..10s, plus occasional
			// overflow beyond the last bound.
			d := time.Duration(float64(time.Microsecond) * math.Pow(10, 7*r.Float64()))
			if r.Bool(0.01) {
				d = 200 * time.Second
			}
			shards[r.Intn(nShards)].Record(d)
			whole.Record(d)
		}
		var sum HistSnapshot
		for _, h := range shards {
			if err := sum.Add(h.Raw()); err != nil {
				t.Fatal(err)
			}
		}
		if total := sum.Total(); total != int64(n) {
			t.Fatalf("trial %d: merged total %d, want %d", trial, total, n)
		}
		for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
			merged := sum.Quantile(p)
			wc, wt := whole.Snapshot()
			pop := Quantile(whole.Bounds(), wc, wt, whole.Max(), p)
			if merged != pop {
				t.Fatalf("trial %d (shards=%d n=%d): p%v merged %v != population %v",
					trial, nShards, n, p, merged, pop)
			}
		}
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	m := NewMinter(7)
	id := m.Mint()
	if id.IsZero() {
		t.Fatal("minted zero trace id")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", s, back, ok)
	}
	if string(id.AppendHex(nil)) != s {
		t.Fatalf("AppendHex mismatch: %q vs %q", id.AppendHex(nil), s)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("g", 32), "abc"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Fatalf("ParseTraceID accepted %q", bad)
		}
	}
	// Deterministic: same seed, same stream.
	if a, b := NewMinter(3).Mint(), NewMinter(3).Mint(); a != b {
		t.Fatalf("minter not deterministic: %s vs %s", a, b)
	}
	ctx := WithTrace(context.Background(), id)
	got, ok := TraceFrom(ctx)
	if !ok || got != id {
		t.Fatalf("TraceFrom = %v, %v", got, ok)
	}
	if _, ok := TraceFrom(context.Background()); ok {
		t.Fatal("TraceFrom on empty ctx")
	}
}

func TestTrackerObserveAndTraceBody(t *testing.T) {
	tr := NewTracker([]string{"score", "decide"}, 2)
	et := tr.Endpoint("score")
	if et == nil || tr.Endpoint("nope") != nil {
		t.Fatal("endpoint lookup")
	}
	m := NewMinter(1)
	var slowest TraceID
	for i := 1; i <= 5; i++ {
		id := m.Mint()
		var spans Spans
		spans[StageFetch] = time.Duration(i) * time.Millisecond
		spans[StageScore] = time.Duration(i) * 2 * time.Millisecond
		total := time.Duration(i) * 3 * time.Millisecond
		if i == 5 {
			slowest = id
		}
		et.Observe(id, total, &spans)
	}
	if n := et.StageHistogram(StageFetch).Total(); n != 5 {
		t.Fatalf("fetch stage count = %d", n)
	}
	if n := et.StageHistogram(StageDecide).Total(); n != 0 {
		t.Fatalf("untraversed stage count = %d", n)
	}
	body := TraceBody(tr)
	eps := body["endpoints"].(map[string]interface{})
	score := eps["score"].(map[string]interface{})
	stages := score["stages"].(map[string]interface{})
	if _, ok := stages["fetch"]; !ok {
		t.Fatalf("stages = %v", stages)
	}
	if _, ok := stages["decide"]; ok {
		t.Fatal("untraversed stage reported")
	}
	slow := score["slowest"].([]map[string]interface{})
	if len(slow) != 2 {
		t.Fatalf("ring kept %d exemplars, want 2", len(slow))
	}
	if slow[0]["trace_id"] != slowest.String() {
		t.Fatalf("slowest exemplar = %v, want %s", slow[0]["trace_id"], slowest)
	}
}

func TestExpoRoundTripAndLint(t *testing.T) {
	e := NewExpo()
	e.Counter("titant_scoring_scored_total", "transactions scored", 12, "shard", "0")
	e.Counter("titant_scoring_scored_total", "transactions scored", 30, "shard", "1")
	e.Gauge("titant_admission_inflight", "in-flight admitted requests", 3)
	h := NewHistogram([]time.Duration{time.Millisecond, time.Second})
	h.Record(500 * time.Microsecond)
	h.Record(2 * time.Second)
	counts, _ := h.Snapshot()
	e.Histogram("titant_scoring_latency_seconds", "scoring latency", h.Bounds(), counts, int64(h.Sum()), "endpoint", "score")
	page := e.Bytes()
	if err := Lint(page); err != nil {
		t.Fatalf("lint: %v\n%s", err, page)
	}
	s, err := ParseExpo(page)
	if err != nil {
		t.Fatal(err)
	}
	f := s.Families["titant_scoring_scored_total"]
	if f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("family = %+v", f)
	}
	if f.Samples[1].Labels["shard"] != "1" || f.Samples[1].Value != 30 {
		t.Fatalf("sample = %+v", f.Samples[1])
	}
	hf := s.Families["titant_scoring_latency_seconds"]
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("hist family = %+v", hf)
	}
	// _bucket(+Inf) == _count == 2, _sum in seconds.
	var inf, count, sum float64
	for _, sm := range hf.Samples {
		switch {
		case strings.HasSuffix(sm.Name, "_bucket") && sm.Labels["le"] == "+Inf":
			inf = sm.Value
		case strings.HasSuffix(sm.Name, "_count"):
			count = sm.Value
		case strings.HasSuffix(sm.Name, "_sum"):
			sum = sm.Value
		}
	}
	if inf != 2 || count != 2 {
		t.Fatalf("+Inf %v count %v", inf, count)
	}
	if sum < 2.0 || sum > 2.001 {
		t.Fatalf("sum = %v", sum)
	}

	// Re-label and re-render: still lints, every series carries the label.
	s.AddLabel("tier", "edge")
	page2 := s.Render()
	if err := Lint(page2); err != nil {
		t.Fatalf("relabeled lint: %v\n%s", err, page2)
	}
	s2, err := ParseExpo(page2)
	if err != nil {
		t.Fatal(err)
	}
	for key := range s2.SeriesSet() {
		if !strings.Contains(key, "tier=edge") {
			t.Fatalf("series %s lost the tier label", key)
		}
	}
}

func TestLintCatchesDefects(t *testing.T) {
	cases := map[string]string{
		"duplicate series": `# HELP a_total x
# TYPE a_total counter
a_total 1
a_total 2
`,
		"missing +Inf": `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 1
h_sum 1
h_count 1
`,
		"non-cumulative": `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`,
		"count mismatch": `# HELP h x
# TYPE h histogram
h_bucket{le="+Inf"} 5
h_sum 1
h_count 4
`,
		"undeclared sample": `b_total 1
`,
		"bad type": `# TYPE a_total bogus
a_total 1
`,
	}
	for name, page := range cases {
		if err := Lint([]byte(page)); err == nil {
			t.Errorf("%s: lint passed", name)
		}
	}
}

func TestScrapeMergeConflict(t *testing.T) {
	a, err := ParseExpo([]byte("# TYPE m counter\nm 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseExpo([]byte("# TYPE m gauge\nm 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("type conflict merged silently")
	}
	c, err := ParseExpo([]byte("# TYPE m counter\nm{shard=\"1\"} 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Families["m"].Samples); got != 2 {
		t.Fatalf("merged samples = %d", got)
	}
}
