package router

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/model/lr"
	"titant/internal/ms"
	"titant/internal/rng"
	"titant/internal/txn"
)

const fleetUsers = 40

func toyBundle(t testing.TB) *ms.Bundle {
	t.Helper()
	r := rng.New(1)
	n := 2000
	m := feature.NewMatrix(n, feature.NumBasic)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		amt := r.Float64() * 2000
		m.Set(i, 0, amt)
		m.Set(i, 1, math.Log1p(amt))
		labels[i] = amt > 1200 && r.Bool(0.9)
	}
	clf := lr.Train(m, labels, lr.Config{Bins: 32, L1: 0.01, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 10, Seed: 1})
	city := feature.CityTable{Fraud: []float64{0.01, 0.2}, Share: []float64{0.9, 0.1}}
	b, err := ms.NewBundle("2017-04-10", clf, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func seedTable(t testing.TB) *hbase.Table {
	t.Helper()
	tab, err := hbase.Open(hbase.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	up := &ms.Uploader{Table: tab}
	for i := txn.UserID(0); i < fleetUsers; i++ {
		u := txn.User{ID: i, Age: uint8(20 + int(i)%40), HomeCity: uint16(i % 2), AvgAmount: float32(10 + i)}
		if err := up.PutUser(&u, feature.UserStats{OutCount: float64(i % 10)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// fleet is n shard servers behind a router, plus an identically built
// unsharded reference. Every shard holds the full replicated feature
// table (the wire tier's stance: T+1 artifacts replicate, hot state
// partitions), so verdicts must match the reference exactly.
type fleet struct {
	rt      *Router
	servers []*ms.Server
	web     []*httptest.Server
	ref     *ms.Server
}

func newFleet(t *testing.T, n int, shardOpts func() []ms.Option, rtOpts ...Option) *fleet {
	t.Helper()
	b := toyBundle(t)
	f := &fleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := ms.New(seedTable(t), b, shardOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		f.servers = append(f.servers, srv)
		f.web = append(f.web, hs)
		urls[i] = hs.URL
	}
	ref, err := ms.New(seedTable(t), b, shardOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	f.ref = ref
	rt, err := New(urls, rtOpts...)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	return f
}

func streamOpts() []ms.Option {
	st := stream.New(stream.WithCities(4), stream.WithWindow(8, 86400))
	return []ms.Option{ms.WithStreamAggregates(st), ms.WithUserCache(128)}
}

func fleetTxns(n int, seed uint64) []ms.TxnRequest {
	r := rng.New(seed)
	reqs := make([]ms.TxnRequest, n)
	for i := range reqs {
		reqs[i] = ms.TxnRequest{
			ID: int64(i + 1), Day: 1, Sec: int32(i),
			From: int32(r.Intn(fleetUsers)), To: int32(r.Intn(fleetUsers)),
			Amount: float32(r.Float64() * 2000), TransCity: uint16(r.Intn(4)),
		}
	}
	return reqs
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w, w.Body.Bytes()
}

func getJSON(t *testing.T, h http.Handler, path string, out interface{}) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: %v (%s)", path, err, w.Body.String())
		}
	}
	return w.Code
}

// TestRouterScoreBatchParity: a batch through the router returns the
// reference engine's verdicts, bit for bit, in input order.
func TestRouterScoreBatchParity(t *testing.T) {
	f := newFleet(t, 3, streamOpts)
	h := f.rt.Handler()
	reqs := fleetTxns(150, 7)

	w, body := postJSON(t, h, "/v1/score/batch", map[string]interface{}{"transactions": reqs})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, body)
	}
	var resp struct {
		Verdicts []ms.Verdict `json:"verdicts"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Verdicts) != len(reqs) {
		t.Fatalf("%d verdicts for %d transactions", len(resp.Verdicts), len(reqs))
	}

	txns := make([]txn.Transaction, len(reqs))
	for i := range reqs {
		txns[i] = reqs[i].Txn()
	}
	want, err := f.ref.ScoreBatch(context.Background(), txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got := resp.Verdicts[i]
		if got.TxnID != want[i].TxnID {
			t.Fatalf("verdict %d out of order: txn %d, want %d", i, got.TxnID, want[i].TxnID)
		}
		// JSON round-trips float64 exactly (shortest round-trip
		// encoding), so equality here is bitwise.
		if got.Score != want[i].Score || got.Fraud != want[i].Fraud {
			t.Fatalf("verdict %d: router %v != reference %v", i, got.Score, want[i].Score)
		}
	}

	// The batch really scattered: every shard scored some of it.
	var sum int64
	for si, srv := range f.servers {
		c := srv.Latency().Count
		if c == 0 {
			t.Fatalf("shard %d scored nothing", si)
		}
		sum += c
	}
	if sum != int64(len(reqs)) {
		t.Fatalf("shards scored %d total, want %d", sum, len(reqs))
	}
}

// TestRouterSingleRouting: single-row routes forward whole to the
// sender's owner shard.
func TestRouterSingleRouting(t *testing.T) {
	f := newFleet(t, 3, streamOpts)
	h := f.rt.Handler()
	for _, req := range fleetTxns(30, 9) {
		w, body := postJSON(t, h, "/v1/score", req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, body)
		}
		var v ms.Verdict
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		tr := req.Txn()
		want, err := f.ref.Score(context.Background(), &tr)
		if err != nil {
			t.Fatal(err)
		}
		if v.Score != want.Score {
			t.Fatalf("txn %d: router %v != reference %v", req.ID, v.Score, want.Score)
		}
		owner := ms.ShardOf(txn.UserID(req.From), 3)
		for si, srv := range f.servers {
			if c := srv.Latency().Count; (si == owner) != (c > 0) {
				t.Fatalf("txn %d (owner %d): shard %d scored %d", req.ID, owner, si, c)
			}
		}
		// Reset per-iteration accounting by checking only the first txn.
		break
	}
}

// TestRouterIngestPartition: ingest batches split by owner, each shard's
// private window only absorbing its own users' traffic.
func TestRouterIngestPartition(t *testing.T) {
	f := newFleet(t, 3, streamOpts)
	h := f.rt.Handler()
	reqs := fleetTxns(120, 11)
	ingest := make([]map[string]interface{}, len(reqs))
	for i, r := range reqs {
		ingest[i] = map[string]interface{}{
			"id": r.ID, "day": r.Day, "sec": r.Sec, "from": r.From, "to": r.To,
			"amount": r.Amount, "trans_city": r.TransCity, "fraud": i%10 == 0,
		}
	}
	w, body := postJSON(t, h, "/v1/ingest/batch", map[string]interface{}{"transactions": ingest})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, body)
	}
	var ir struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != len(reqs) {
		t.Fatalf("merged ingested = %d, want %d", ir.Ingested, len(reqs))
	}
	var total int64
	for si, srv := range f.servers {
		c := srv.Ingested()
		if c == 0 || c == int64(len(reqs)) {
			t.Fatalf("shard %d ingested %d of %d: traffic did not partition", si, c, len(reqs))
		}
		total += c
	}
	if total != int64(len(reqs)) {
		t.Fatalf("shards ingested %d total, want %d", total, len(reqs))
	}
}

// TestRouterControlReplication: POST /v1/models and /v1/policy land on
// every shard; GET reads shard 0.
func TestRouterControlReplication(t *testing.T) {
	pol, err := decision.Parse([]byte(`{
	  "version": "pol-1",
	  "scenarios": {"default": {"bands": [
	    {"min": 0, "max": 0.5, "action": "approve"},
	    {"min": 0.5, "max": 1, "action": "deny"}
	  ]}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, 3, func() []ms.Option {
		return append(streamOpts(), ms.WithPolicy(pol))
	})
	h := f.rt.Handler()

	next := []byte(`{
	  "version": "pol-2",
	  "scenarios": {"default": {"bands": [
	    {"min": 0, "max": 0.9, "action": "approve"},
	    {"min": 0.9, "max": 1, "action": "deny"}
	  ]}}
	}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/policy", bytes.NewReader(next))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("policy swap: status %d: %s", w.Code, w.Body.String())
	}
	for si, srv := range f.servers {
		if v := srv.PolicyVersion(); v != "pol-2" {
			t.Fatalf("shard %d policy %q after replicated swap", si, v)
		}
	}

	var doc map[string]interface{}
	if code := getJSON(t, h, "/v1/policy", &doc); code != http.StatusOK {
		t.Fatalf("GET /v1/policy: %d", code)
	}
	if doc["version"] != "pol-2" {
		t.Fatalf("GET /v1/policy version = %v", doc["version"])
	}

	// Model swap replicates the same way.
	nb := *toyBundle(t)
	nb.Version = "2017-04-17"
	raw, err := nb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/models", bytes.NewReader(raw))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("model swap: status %d: %s", w.Code, w.Body.String())
	}
	for si, srv := range f.servers {
		if v := srv.BundleVersion(); v != "2017-04-17" {
			t.Fatalf("shard %d bundle %q after replicated swap", si, v)
		}
	}
}

// TestRouterStatsMerge: the merged stats body sums the fleet and carries
// the router section.
func TestRouterStatsMerge(t *testing.T) {
	f := newFleet(t, 3, streamOpts)
	h := f.rt.Handler()
	reqs := fleetTxns(90, 13)
	if w, body := postJSON(t, h, "/v1/score/batch", map[string]interface{}{"transactions": reqs}); w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, body)
	}

	var stats statsBody
	if code := getJSON(t, h, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if stats.Scored != int64(len(reqs)) {
		t.Fatalf("merged scored = %d, want %d", stats.Scored, len(reqs))
	}
	if stats.Shards != 3 {
		t.Fatalf("merged shards = %d, want 3", stats.Shards)
	}
	if got := stats.LatencyHist.Total(); got != int64(len(reqs)) {
		t.Fatalf("merged histogram holds %d samples, want %d", got, len(reqs))
	}
	if c := stats.UserCache; c == nil || c.Capacity != 3*128 {
		t.Fatalf("merged cache = %+v, want capacity %d", c, 3*128)
	}
	if rs := stats.Router; rs.Batches < 1 || len(rs.Shards) != 3 {
		t.Fatalf("router section = %+v", rs)
	}
}

// TestRouterStatsSkipsRefusingShard: a shard that refuses GET /v1/stats
// (here with a 429 envelope) is listed as unreachable, not merged as an
// empty snapshot.
func TestRouterStatsSkipsRefusingShard(t *testing.T) {
	srv, err := ms.New(seedTable(t), toyBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	live := httptest.NewServer(srv.Handler())
	t.Cleanup(live.Close)
	refusing := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":{"code":"rate_limited","message":"quota"}}`))
	})
	rt := newTestRouter(t, []string{live.URL, refusing.URL}, WithRetries(0, 0, 0))
	var stats statsBody
	if code := getJSON(t, rt.Handler(), "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if stats.Shards != 1 || len(stats.Router.Unreachable) != 1 || stats.Router.Unreachable[0] != 1 {
		t.Fatalf("shards = %d, unreachable = %v; want 1 and [1]", stats.Shards, stats.Router.Unreachable)
	}
}

// TestRouterHealth: all-ok fleets answer 200 "ok"; losing one of three
// shards keeps the fleet load-balancer-green — 200 "degraded" naming the
// sick shard — because a quorum can still serve; losing a second drops
// below quorum and only then does the router answer 503.
func TestRouterHealth(t *testing.T) {
	f := newFleet(t, 3, streamOpts, WithRetries(0, 0, 0))
	h := f.rt.Handler()
	var health map[string]interface{}
	if code := getJSON(t, h, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthy fleet: %d (%v)", code, health)
	}
	if health["status"] != "ok" || health["shards"].(float64) != 3 || health["quorum"].(float64) != 2 {
		t.Fatalf("healthy fleet body = %v", health)
	}

	f.web[1].Close()
	if code := getJSON(t, h, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("one shard down with quorum up: %d, want 200", code)
	}
	if health["status"] != "degraded" || health["healthy"].(float64) != 2 {
		t.Fatalf("degraded fleet body = %v", health)
	}
	sick := health["shard_status"].([]interface{})[1].(map[string]interface{})
	if sick["status"] != "unreachable" {
		t.Fatalf("shard 1 status = %v", sick["status"])
	}

	f.web[2].Close()
	if code := getJSON(t, h, "/healthz", &health); code != http.StatusServiceUnavailable {
		t.Fatalf("below quorum: %d, want 503", code)
	}
	if health["status"] != "unavailable" || health["healthy"].(float64) != 1 {
		t.Fatalf("below-quorum body = %v", health)
	}
}

// TestRouterErrorRelay: a shard's typed refusal (here: batch too large)
// passes through with status and envelope intact.
func TestRouterErrorRelay(t *testing.T) {
	f := newFleet(t, 2, func() []ms.Option {
		return append(streamOpts(), ms.WithMaxBatch(3))
	})
	h := f.rt.Handler()
	// 8 txns from one user: all land on one shard, exceeding its limit.
	reqs := make([]ms.TxnRequest, 8)
	for i := range reqs {
		reqs[i] = ms.TxnRequest{ID: int64(i + 1), From: 5, To: 6, Amount: 10}
	}
	w, body := postJSON(t, h, "/v1/score/batch", map[string]interface{}{"transactions": reqs})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", w.Code, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "batch_too_large" {
		t.Fatalf("envelope %s (err %v)", body, err)
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := New([]string{"http://a:1", " "}); err == nil {
		t.Fatal("blank shard URL accepted")
	}
	rt, err := New([]string{"localhost:8081", "http://localhost:8082/"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.shards[0] != "http://localhost:8081" || rt.shards[1] != "http://localhost:8082" {
		t.Fatalf("normalised shards = %v", rt.shards)
	}
	if rt.Shards() != 2 {
		t.Fatalf("Shards() = %d", rt.Shards())
	}
}

func TestRouterRejectsMalformedBatch(t *testing.T) {
	f := newFleet(t, 2, streamOpts)
	h := f.rt.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/score/batch", bytes.NewReader([]byte(`{"transactions": [{"from": }]}`)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
}

// TestStatsShardedMatchesWire: the same score and decide traffic (no
// ingest, so the per-shard live windows cannot diverge) through an
// in-process ring of two and through the router over two wire shards
// yields the same fleet counters — one Merge serves both layouts.
func TestStatsShardedMatchesWire(t *testing.T) {
	opts := policyOpts(t)
	b := toyBundle(t)
	se, err := ms.NewSharded([]*hbase.Table{seedTable(t), seedTable(t)}, b, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(se.Close)
	urls := make([]string, 2)
	for i := range urls {
		srv, err := ms.New(seedTable(t), b, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	rt := newTestRouter(t, urls)

	reqs := fleetTxns(60, 29)
	decides := make([]ms.DecideRequest, len(reqs))
	for i := range reqs {
		decides[i] = ms.DecideRequest{TxnRequest: reqs[i]}
	}
	var got [2]statsBody
	for li, h := range []http.Handler{se.Handler(), rt.Handler()} {
		for path, body := range map[string]interface{}{
			"/v1/score/batch":  ms.BatchRequest{Transactions: reqs},
			"/v1/decide/batch": ms.DecideBatchRequest{Transactions: decides},
			"/v1/score":        reqs[0],
			"/v1/decide":       decides[1],
		} {
			if w, out := postJSON(t, h, path, body); w.Code != http.StatusOK {
				t.Fatalf("layout %d POST %s: %d %s", li, path, w.Code, out)
			}
		}
		if code := getJSON(t, h, "/v1/stats", &got[li]); code != http.StatusOK {
			t.Fatalf("layout %d GET /v1/stats: %d", li, code)
		}
	}
	ring, wire := got[0], got[1]
	if ring.Scored == 0 || ring.Policy == nil || wire.Policy == nil {
		t.Fatalf("no traffic recorded: ring %+v", ring.Stats)
	}
	if ring.Scored != wire.Scored || ring.Alerted != wire.Alerted || ring.Shards != wire.Shards {
		t.Fatalf("ring scored/alerted/shards %d/%d/%d, wire %d/%d/%d",
			ring.Scored, ring.Alerted, ring.Shards, wire.Scored, wire.Alerted, wire.Shards)
	}
	if ring.Policy.DecisionStats != wire.Policy.DecisionStats {
		t.Fatalf("ring actions %+v, wire %+v", ring.Policy.DecisionStats, wire.Policy.DecisionStats)
	}
	if r, w := ring.LatencyHist.Total(), wire.LatencyHist.Total(); r != w || r != ring.Scored {
		t.Fatalf("latency histogram totals: ring %d, wire %d, scored %d", r, w, ring.Scored)
	}
}
