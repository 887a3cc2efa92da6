package ms

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"titant/internal/telemetry"
)

// TestMetricsEndpointLintsAndCovers: after traffic, GET /metrics serves
// a lint-clean exposition page in the 0.0.4 content type whose families
// cover the serving counters and the per-stage histograms.
func TestMetricsEndpointLintsAndCovers(t *testing.T) {
	_, ts := v1Server(t)
	body, _ := json.Marshal(TxnRequest{ID: 7, From: 1, To: 2, Amount: 1800})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type %q, want the 0.0.4 exposition type", ct)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint(page); err != nil {
		t.Fatalf("page fails lint: %v", err)
	}
	sc, err := telemetry.ParseExpo(page)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, name := range sc.FamilyNames() {
		families[name] = true
	}
	for _, want := range []string{
		"titant_scoring_scored_total",
		"titant_scoring_alerted_total",
		"titant_scoring_latency_seconds",
		"titant_stage_latency_seconds",
		"titant_bundle_info",
		"titant_engine_shards",
	} {
		if !families[want] {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
	// The stage histograms carry endpoint and stage labels.
	set := sc.SeriesSet()
	found := false
	for s := range set {
		if strings.HasPrefix(s, "titant_stage_latency_seconds_count") &&
			strings.Contains(s, "{endpoint=score}") && strings.Contains(s, "{stage=score}") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no titant_stage_latency_seconds series for endpoint=score stage=score")
	}

	if resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /metrics: %d, want 405", resp.StatusCode)
		}
	}
}

// TestDebugTraceEndpoint: GET /v1/debug/trace dumps per-endpoint stage
// aggregation with the slowest exemplars, and the exemplar trace IDs
// are the ones the responses carried.
func TestDebugTraceEndpoint(t *testing.T) {
	_, ts := v1Server(t)
	body, _ := json.Marshal(TxnRequest{ID: 7, From: 1, To: 2, Amount: 1800})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	const want = "00112233445566778899aabbccddeeff"
	req.Header.Set(telemetry.TraceHeader, want)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceHeader); got != want {
		t.Fatalf("score response trace = %q, want adopted %q", got, want)
	}

	resp, err = http.Get(ts.URL + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dump struct {
		Endpoints map[string]struct {
			Stages map[string]struct {
				Count int64 `json:"count"`
			} `json:"stages"`
			Slowest []struct {
				TraceID string `json:"trace_id"`
			} `json:"slowest"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	ep, ok := dump.Endpoints["score"]
	if !ok {
		t.Fatalf("trace dump has no score endpoint: %+v", dump.Endpoints)
	}
	if st, ok := ep.Stages["score"]; !ok || st.Count < 1 {
		t.Fatalf("score endpoint has no score-stage samples: %+v", ep.Stages)
	}
	found := false
	for _, ex := range ep.Slowest {
		if ex.TraceID == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("adopted trace %s not among score exemplars", want)
	}
}

// TestShardedMetricsAgreeWithStats: a sharded engine's /metrics page and
// its /v1/stats snapshot report the same counters — the shard-labeled
// series sum to the merged snapshot, and the shared window's ingest
// count appears once, not once per shard.
func TestShardedMetricsAgreeWithStats(t *testing.T) {
	se := buildSharded(t, 3, trainToy(t, 0), WithPolicy(decidePolicy(t)))
	ctx := context.Background()
	txns := shardTxns(90, 31)
	if err := se.IngestBatch(txns[:30]); err != nil {
		t.Fatal(err)
	}
	if _, err := se.ScoreBatch(ctx, txns); err != nil {
		t.Fatal(err)
	}
	if _, err := se.DecideBatch(ctx, txns, nil); err != nil {
		t.Fatal(err)
	}
	st := se.Stats()
	sc, err := telemetry.ParseExpo(se.MetricsBody())
	if err != nil {
		t.Fatal(err)
	}
	sum := func(family, label, value string) (total float64) {
		f, ok := sc.Families[family]
		if !ok {
			t.Fatalf("family %s missing", family)
		}
		for _, s := range f.Samples {
			if label == "" || s.Labels[label] == value {
				total += s.Value
			}
		}
		return total
	}
	if got := sum("titant_scoring_scored_total", "", ""); got != float64(st.Scored) || st.Scored == 0 {
		t.Fatalf("scored: metrics %v, stats %d", got, st.Scored)
	}
	if got := sum("titant_scoring_alerted_total", "", ""); got != float64(st.Alerted) {
		t.Fatalf("alerted: metrics %v, stats %d", got, st.Alerted)
	}
	for action, want := range map[string]int64{"approve": st.Policy.Approved, "challenge": st.Policy.Challenged, "deny": st.Policy.Denied} {
		if got := sum("titant_decisions_total", "action", action); got != float64(want) {
			t.Fatalf("%s: metrics %v, stats %d", action, got, want)
		}
	}
	if st.Ingested == nil || *st.Ingested != 30 {
		t.Fatalf("stats ingested = %v, want 30", st.Ingested)
	}
	if got := sum("titant_ingest_ingested_total", "", ""); got != 30 {
		t.Fatalf("metrics ingested = %v, want 30", got)
	}
}
