package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"titant/internal/decision"
	"titant/internal/hbase"
	"titant/internal/ms"
)

// keyPathsFixture is the set of /v1/stats JSON key paths each serving
// layout reported before the typed stats snapshot replaced the untyped
// bodies. A path is a dotted key chain; "[]" marks an array element.
const keyPathsFixture = "testdata/stats_keypaths.json"

// allSubsystemOpts turns on every subsystem that contributes a /v1/stats
// section: live window, user cache, policy, shadow, drift and admission,
// plus the event log when logDir is set (in-process shards refuse it).
func allSubsystemOpts(t *testing.T, logDir string) []ms.Option {
	t.Helper()
	opts := append(policyOpts(t)(),
		ms.WithShadow(toyBundle(t)),
		ms.WithDriftMonitor(decision.DriftConfig{}),
		ms.WithCallerQuota(1e6, 1e6),
	)
	if logDir != "" {
		opts = append(opts, ms.WithEventLog(logDir))
	}
	return opts
}

// statsKeyPaths drives one score, decide and ingest through h, then
// returns the key paths of its GET /v1/stats body.
func statsKeyPaths(t *testing.T, h http.Handler) []string {
	t.Helper()
	req := fleetTxns(1, 3)[0]
	for path, body := range map[string]interface{}{
		"/v1/score":  req,
		"/v1/decide": ms.DecideRequest{TxnRequest: req},
		"/v1/ingest": ms.IngestRequest{TxnRequest: req},
	} {
		if w, out := postJSON(t, h, path, body); w.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, w.Code, out)
		}
	}
	var body interface{}
	if code := getJSON(t, h, "/v1/stats", &body); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	set := map[string]bool{}
	collectKeyPaths("", body, set)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func collectKeyPaths(prefix string, v interface{}, out map[string]bool) {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, c := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			collectKeyPaths(p, c, out)
		}
	case []interface{}:
		for _, c := range x {
			collectKeyPaths(prefix+"[]", c, out)
		}
	}
}

// layoutKeyPaths builds the three serving layouts with every subsystem
// on — one engine, an in-process ring of three, and the wire router over
// two shard servers — and returns each layout's stats key paths.
func layoutKeyPaths(t *testing.T) map[string][]string {
	t.Helper()
	b := toyBundle(t)
	out := map[string][]string{}

	srv, err := ms.New(seedTable(t), b, allSubsystemOpts(t, t.TempDir())...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	out["server"] = statsKeyPaths(t, srv.Handler())

	se, err := ms.NewSharded([]*hbase.Table{seedTable(t), seedTable(t), seedTable(t)}, b, allSubsystemOpts(t, "")...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(se.Close)
	out["sharded"] = statsKeyPaths(t, se.Handler())

	urls := make([]string, 2)
	for i := range urls {
		shard, err := ms.New(seedTable(t), b, allSubsystemOpts(t, t.TempDir())...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(shard.Close)
		hs := httptest.NewServer(shard.Handler())
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	out["router"] = statsKeyPaths(t, newTestRouter(t, urls).Handler())
	return out
}

// TestStatsKeyPathsKept: no layout's /v1/stats body loses a key path it
// carried before the typed snapshot. Paths added since are logged.
func TestStatsKeyPathsKept(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(keyPathsFixture))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := layoutKeyPaths(t)
	for _, layout := range []string{"server", "sharded", "router"} {
		if len(want[layout]) == 0 {
			t.Fatalf("fixture has no %s paths", layout)
		}
		have := map[string]bool{}
		for _, p := range got[layout] {
			have[p] = true
		}
		old := map[string]bool{}
		for _, p := range want[layout] {
			old[p] = true
			if !have[p] {
				t.Errorf("%s: /v1/stats lost key path %q", layout, p)
			}
		}
		for _, p := range got[layout] {
			if !old[p] {
				t.Logf("%s: added key path %q", layout, p)
			}
		}
	}
}
