package router

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"titant/internal/ms"
)

// oneSample is a minimal well-formed latency histogram for fixtures that
// test other sections: every stats body carries one.
const oneSample = `"latency_hist": {"bounds_ns": [1000], "counts": [1, 0], "max_ns": 100}`

// answers wraps raw shard bodies as 200 upstream answers.
func answers(raws ...string) []upstream {
	ups := make([]upstream, len(raws))
	for i, raw := range raws {
		ups[i] = upstream{status: http.StatusOK, body: []byte(raw)}
	}
	return ups
}

// merge folds raw shard bodies through the router's decode and ms.Merge,
// so the fixtures exercise the same path real shard responses take.
func merge(t *testing.T, raws ...string) ms.Stats {
	t.Helper()
	m, unanswered, err := mergeStats(answers(raws...))
	if err != nil || len(unanswered) > 0 {
		t.Fatalf("merge: err=%v unanswered=%v", err, unanswered)
	}
	return m
}

const (
	countersA = `{
	  "scored": 10, "alerted": 1, "version": "v1", "shards": 1,
	  "p50_us": 1, "p99_us": 2, "max_us": 3,
	  "latency_hist": {"bounds_ns": [1000, 2000], "counts": [10, 0, 0], "max_ns": 900},
	  "user_cache": {"hits": 5, "misses": 5, "size": 4, "capacity": 64},
	  "admission": {"admitted": 10, "shed_quota": 1, "rate": 100, "burst": 50, "max_inflight": 8, "callers": 2, "inflight": 0, "shed_inflight": 0}
	}`
	countersB = `{
	  "scored": 30, "alerted": 2, "version": "v1", "shards": 1,
	  "p50_us": 2, "p99_us": 2, "max_us": 2,
	  "latency_hist": {"bounds_ns": [1000, 2000], "counts": [0, 0, 30], "max_ns": 5000},
	  "user_cache": {"hits": 20, "misses": 10, "size": 9, "capacity": 64},
	  "admission": {"admitted": 30, "shed_quota": 0, "rate": 100, "burst": 50, "max_inflight": 8, "callers": 3, "inflight": 1, "shed_inflight": 2}
	}`
	shadowDriftA = `{
	  "scored": 1, ` + oneSample + `,
	  "shadow": {"challenger_version": "c1", "scored": 10, "agreed": 10, "flipped": 0,
	             "dropped": 0, "errors": 0, "agreement": 1.0, "mean_divergence": 0.1, "queue_depth": 1},
	  "drift": {"alert": false, "series": [
	    {"name": "score", "baseline": 100, "live": 10, "psi": 0.01, "ks": 0.02, "alert": false}
	  ]}
	}`
	shadowDriftB = `{
	  "scored": 1, ` + oneSample + `,
	  "shadow": {"challenger_version": "c1", "scored": 30, "agreed": 15, "flipped": 15,
	             "dropped": 1, "errors": 0, "agreement": 0.5, "mean_divergence": 0.3, "queue_depth": 2},
	  "drift": {"alert": true, "series": [
	    {"name": "score", "baseline": 100, "live": 30, "psi": 0.4, "ks": 0.1, "alert": true}
	  ]}
	}`
	endpointsA = `{
	  "scored": 1, ` + oneSample + `,
	  "endpoints": {"ingest": {"count": 5, "p50_us": 10, "p99_us": 20, "max_us": 30,
	    "hist": {"bounds_ns": [1000], "counts": [5, 0], "max_ns": 800}}},
	  "eventlog": {"appended": 100, "fsyncs": 10, "bytes": 4096, "segments": 1,
	    "max_consumer_lag": 5, "last_fsync_age_seconds": 0.5, "replayed": 0, "append_errors": 0,
	    "first_offset": 0, "next_offset": 100, "unsynced_bytes": 10, "snapshot_end": 0}
	}`
	endpointsB = `{
	  "scored": 1, ` + oneSample + `,
	  "endpoints": {"ingest": {"count": 15, "p50_us": 40, "p99_us": 50, "max_us": 60,
	    "hist": {"bounds_ns": [1000], "counts": [0, 15], "max_ns": 9000}}},
	  "eventlog": {"appended": 300, "fsyncs": 30, "bytes": 8192, "segments": 2,
	    "max_consumer_lag": 50, "last_fsync_age_seconds": 0.1, "replayed": 7, "append_errors": 1,
	    "first_offset": 40, "next_offset": 340, "unsynced_bytes": 0, "snapshot_end": 40}
	}`
	boundsA = `{"scored": 1, "p50_us": 3, "p99_us": 7, "max_us": 9,
	  "latency_hist": {"bounds_ns": [1000], "counts": [1, 0], "max_ns": 100}}`
	boundsB = `{"scored": 1, "p50_us": 5, "p99_us": 6, "max_us": 8,
	  "latency_hist": {"bounds_ns": [2000], "counts": [1, 0], "max_ns": 100}}`
)

func TestMergeStatsCountersAndHistogram(t *testing.T) {
	m := merge(t, countersA, countersB)

	if m.Scored != 40 || m.Alerted != 3 {
		t.Fatalf("counters: scored=%d alerted=%d", m.Scored, m.Alerted)
	}
	if m.Version != "v1" || m.VersionMixed {
		t.Fatalf("version = %q mixed=%v", m.Version, m.VersionMixed)
	}
	if m.Shards != 2 {
		t.Fatalf("shards = %d", m.Shards)
	}

	// Histogram counts summed: 10 samples <=1µs, 30 above 2µs. The p50
	// rank (20) falls in the overflow bucket, clamped to the observed
	// max — NOT any average of the per-shard p50s (1µs, 2µs).
	if c := m.LatencyHist.Counts; c[0] != 10 || c[2] != 30 {
		t.Fatalf("merged counts = %v", c)
	}
	if m.LatencyHist.Max != 5000 {
		t.Fatalf("merged max_ns = %v", int64(m.LatencyHist.Max))
	}
	if m.P50US != 5 || m.MaxUS != 5 {
		t.Fatalf("recomputed p50_us=%d max_us=%d, want 5 and 5", m.P50US, m.MaxUS)
	}

	if c := m.UserCache; c == nil || c.Hits != 25 || c.Capacity != 128 {
		t.Fatalf("cache merge = %+v", c)
	}
	adm := m.Admission
	if adm == nil || adm.Admitted != 40 || adm.ShedQuota != 1 {
		t.Fatalf("admission counters = %+v", adm)
	}
	if adm.MaxInflight != 16 || adm.Callers != 3 {
		t.Fatalf("admission capacity: max_inflight=%d callers=%d", adm.MaxInflight, adm.Callers)
	}
}

func TestMergeStatsVersionMixed(t *testing.T) {
	m := merge(t,
		`{"version": "v1", "scored": 1, `+oneSample+`}`,
		`{"version": "v2", "scored": 1, `+oneSample+`}`,
	)
	if m.Version != "v1" || !m.VersionMixed {
		t.Fatalf("mixed fleet: version=%q mixed=%v", m.Version, m.VersionMixed)
	}
}

func TestMergeStatsShadowAndDrift(t *testing.T) {
	m := merge(t, shadowDriftA, shadowDriftB)

	sh := m.Shadow
	if sh == nil || sh.Scored != 40 || sh.Agreed != 25 || sh.ChallengerVersion != "c1" {
		t.Fatalf("shadow counters = %+v", sh)
	}
	if sh.Agreement != 25.0/40.0 {
		t.Fatalf("agreement = %v, want %v (recomputed, not averaged)", sh.Agreement, 25.0/40.0)
	}
	// Weighted by scored: (0.1*10 + 0.3*30) / 40 = 0.25.
	if sh.MeanAbsDiff != 0.25 {
		t.Fatalf("mean_divergence = %v, want 0.25", sh.MeanAbsDiff)
	}

	dr := m.Drift
	if dr == nil || !dr.Alert {
		t.Fatal("drift alert not OR-ed")
	}
	if len(dr.Series) != 1 {
		t.Fatalf("drift series = %+v, want one merged by name", dr.Series)
	}
	if s0 := dr.Series[0]; s0.LiveCount != 40 || s0.PSI != 0.4 || !s0.Alert {
		t.Fatalf("drift series merge = %+v", s0)
	}
}

func TestMergeStatsEndpointsAndEventlog(t *testing.T) {
	m := merge(t, endpointsA, endpointsB)

	ing := m.Endpoints["ingest"]
	if ing.Count != 20 {
		t.Fatalf("endpoint count = %d", ing.Count)
	}
	// 5 samples <=1µs + 15 in overflow: p50 rank 10 → overflow → max 9µs.
	if ing.P50US != 9 {
		t.Fatalf("endpoint p50_us = %d, want 9", ing.P50US)
	}

	el := m.EventLog
	if el == nil || el.Appended != 400 || el.Replayed != 7 || el.AppendErrors != 1 {
		t.Fatalf("eventlog sums = %+v", el)
	}
	if el.MaxLag != 50 || el.LastFsyncAge != 0.5 {
		t.Fatalf("eventlog maxima = %+v", el)
	}
	// Offsets are per-log coordinates: the fleet view reports the
	// furthest shard.
	if el.NextOffset != 340 || el.FirstOffset != 40 || el.SnapshotEnd != 40 {
		t.Fatalf("eventlog offsets = %+v", el)
	}
}

// TestMergeStatsIncompatibleHistogramsRejected: buckets of different
// shapes cannot be summed, so the merge refuses them instead of guessing
// a fleet percentile, and the router answers 502 shard_bad_response.
func TestMergeStatsIncompatibleHistogramsRejected(t *testing.T) {
	cases := map[string][2]string{
		"latency bounds": {boundsA, boundsB},
		"endpoint bounds": {endpointsA, `{"scored": 1, ` + oneSample + `,
		  "endpoints": {"ingest": {"hist": {"bounds_ns": [2000], "counts": [1, 0]}}}}`},
		"counts for bounds": {boundsA, `{"scored": 1,
		  "latency_hist": {"bounds_ns": [1000], "counts": [1, 0, 0]}}`},
		"missing histogram": {boundsA, `{"scored": 1}`},
	}
	for name, c := range cases {
		if _, _, err := mergeStats(answers(c[0], c[1])); err == nil {
			t.Errorf("%s: merged anyway", name)
		}
	}

	var urls []string
	for _, raw := range []string{boundsA, boundsB} {
		raw := raw
		urls = append(urls, fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(raw))
		}).URL)
	}
	var env struct {
		Error ms.APIError `json:"error"`
	}
	code := getJSON(t, newTestRouter(t, urls).Handler(), "/v1/stats", &env)
	if code != http.StatusBadGateway || env.Error.Code != "shard_bad_response" {
		t.Fatalf("incompatible shards: %d %+v, want 502 shard_bad_response", code, env.Error)
	}
}

func TestMergeStatsEmpty(t *testing.T) {
	m, err := ms.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scored != 0 || m.Shards != 0 || m.Endpoints != nil || m.UserCache != nil || m.Drift != nil {
		t.Fatalf("merge of nothing = %+v", m)
	}
}

// FuzzStatsMerge: arbitrary shard bytes through the router's decode and
// ms.Merge beside a valid snapshot never panic, and a body whose
// histograms cannot be summed with the valid one's is refused.
func FuzzStatsMerge(f *testing.F) {
	for _, seed := range []string{countersA, countersB, shadowDriftA, shadowDriftB, endpointsA, endpointsB, boundsA, boundsB} {
		f.Add([]byte(seed))
	}
	var valid ms.Stats
	if err := json.Unmarshal([]byte(endpointsA), &valid); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		merged, _, err := mergeStats(answers(endpointsA, string(data)))
		if err != nil {
			return
		}
		var st ms.Stats
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("merged a body that does not decode: %v", err)
		}
		if !slices.Equal(st.LatencyHist.Bounds, valid.LatencyHist.Bounds) ||
			len(st.LatencyHist.Counts) != len(valid.LatencyHist.Counts) {
			t.Fatalf("merged latency histogram of another shape: %+v", st.LatencyHist)
		}
		for name, e := range st.Endpoints {
			if len(e.Hist.Counts) != len(e.Hist.Bounds)+1 {
				t.Fatalf("merged malformed endpoint %s histogram: %+v", name, e.Hist)
			}
			if v, ok := valid.Endpoints[name]; ok && !slices.Equal(v.Hist.Bounds, e.Hist.Bounds) {
				t.Fatalf("merged endpoint %s histogram of another shape: %+v", name, e.Hist)
			}
		}
		if merged.Scored != valid.Scored+st.Scored {
			t.Fatalf("scored %d, want %d + %d", merged.Scored, valid.Scored, st.Scored)
		}
	})
}
