package ms

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"titant/internal/feature"
	"titant/internal/feature/stream"
	"titant/internal/model/lr"
	"titant/internal/rng"
	"titant/internal/txn"
)

// TestIngestDisabled: an engine built without WithStreamAggregates has no
// live window, so ingest fails with the typed sentinel at both the
// library and HTTP layers.
func TestIngestDisabled(t *testing.T) {
	srv, ts := v1Server(t)
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 5}
	if err := srv.Ingest(&tx); !errors.Is(err, ErrStreamDisabled) {
		t.Fatalf("Ingest err = %v, want ErrStreamDisabled", err)
	}
	if err := srv.IngestBatch([]txn.Transaction{tx}); !errors.Is(err, ErrStreamDisabled) {
		t.Fatalf("IngestBatch err = %v, want ErrStreamDisabled", err)
	}
	if srv.StreamEnabled() || srv.Ingested() != 0 {
		t.Fatal("stream reported enabled on a T+1 engine")
	}
	for _, path := range []string{"/v1/ingest", "/v1/ingest/batch"} {
		body, _ := json.Marshal(IngestRequest{TxnRequest: TxnRequest{ID: 1, From: 1, To: 2}})
		if path == "/v1/ingest/batch" {
			body, _ = json.Marshal(IngestBatchRequest{Transactions: []IngestRequest{{}}})
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("POST %s = %d, want 409", path, resp.StatusCode)
		}
		if e := decodeEnvelope(t, resp); e.Code != "stream_disabled" {
			t.Fatalf("envelope = %+v", e)
		}
	}
}

// TestIngestEndpoints drives the wire ingest path: singles carry the
// delayed fraud label, batches respect the engine's batch limit, and the
// stats endpoint reports the window's accepted count.
func TestIngestEndpoints(t *testing.T) {
	tab := table(t)
	st := stream.New(stream.WithCities(4), stream.WithWindow(8, 86400))
	srv, err := New(tab, trainToy(t, 0), WithStreamAggregates(st), WithMaxBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	web := hs.URL

	// Single ingest with a fraud label.
	body, _ := json.Marshal(IngestRequest{
		TxnRequest: TxnRequest{ID: 1, Day: 1, From: 1, To: 2, Amount: 100, TransCity: 2},
		Fraud:      true,
	})
	resp, err := http.Post(web+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir.Ingested != 1 {
		t.Fatalf("single ingest: status=%d resp=%+v", resp.StatusCode, ir)
	}

	// Batch ingest.
	batch := IngestBatchRequest{Transactions: []IngestRequest{
		{TxnRequest: TxnRequest{ID: 2, Day: 1, From: 2, To: 3, Amount: 10, TransCity: 1}},
		{TxnRequest: TxnRequest{ID: 3, Day: 1, From: 3, To: 1, Amount: 20, TransCity: 1}},
	}}
	body, _ = json.Marshal(batch)
	resp, err = http.Post(web+"/v1/ingest/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir.Ingested != 2 {
		t.Fatalf("batch ingest: status=%d resp=%+v", resp.StatusCode, ir)
	}
	if srv.Ingested() != 3 {
		t.Fatalf("ingested = %d, want 3", srv.Ingested())
	}

	// The window absorbed the label: city 2 has 1 fraud in 1 txn.
	f, _, n := st.LookupCity(2)
	if n != 1 || f != (1+feature.CitySmoothing*feature.CityFraudPrior)/(1+feature.CitySmoothing) {
		t.Fatalf("city 2 after labelled ingest: fraud=%v n=%v", f, n)
	}

	// Over-limit batches are rejected with the typed envelope.
	big := IngestBatchRequest{Transactions: make([]IngestRequest, 4)}
	body, _ = json.Marshal(big)
	resp, err = http.Post(web+"/v1/ingest/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch = %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "batch_too_large" {
		t.Fatalf("envelope = %+v", e)
	}

	// GET is not allowed.
	resp, err = http.Get(web + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ingest = %d", resp.StatusCode)
	}

	// /v1/stats reports the window's count on streaming engines.
	resp, err = http.Get(web + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Ingested == nil || *stats.Ingested != 3 {
		t.Fatalf("stats ingested = %v, want 3", stats.Ingested)
	}
}

// TestIngestTokenGuard: with WithIngestToken set, wire ingest requires
// the bearer token — otherwise any client reaching the scoring port
// could poison the live city statistics.
func TestIngestTokenGuard(t *testing.T) {
	tab := table(t)
	st := stream.New(stream.WithCities(2))
	srv, err := New(tab, trainToy(t, 0), WithStreamAggregates(st), WithIngestToken("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	body, _ := json.Marshal(IngestRequest{TxnRequest: TxnRequest{ID: 1, From: 1, To: 2, Amount: 5}})

	resp, err := http.Post(hs.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "unauthorized" {
		t.Fatalf("envelope = %+v", e)
	}
	if st.Ingested() != 0 {
		t.Fatal("unauthorized ingest reached the window")
	}

	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Ingested() != 1 {
		t.Fatalf("authorized ingest: %d, ingested=%d", resp.StatusCode, st.Ingested())
	}
	// The batch route enforces the same guard.
	bb, _ := json.Marshal(IngestBatchRequest{Transactions: []IngestRequest{{}}})
	resp, err = http.Post(hs.URL+"/v1/ingest/batch", "application/json", bytes.NewReader(bb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("batch no token: %d", resp.StatusCode)
	}
}

// TestColdStreamMatchesFrozen: with an empty live window, the fallback
// city view makes a streaming engine score bitwise-identically to the
// pure T+1 engine — a fresh daemon is not degraded by its cold start.
func TestColdStreamMatchesFrozen(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i, Age: 30, HomeCity: 1}
		if err := up.PutUser(&u, feature.UserStats{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := New(tab, trainToy(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := New(tab, trainToy(t, 0), WithStreamAggregates(stream.New(stream.WithCities(2))))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		tx := txn.Transaction{ID: txn.TxnID(i), From: 1, To: 2,
			Amount: float32(100 * i), TransCity: uint16(i % 2)}
		want, err := frozen.Score(ctx, &tx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streaming.Score(ctx, &tx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("txn %d: cold streaming score %v != frozen %v", i, got.Score, want.Score)
		}
	}
}

// TestStreamWarmupGate: below the warm-up threshold the engine keeps
// scoring from the frozen table even though the window holds a little
// traffic — a single in-window transaction must not flip a city's
// traffic share to 1.0.
func TestStreamWarmupGate(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i, Age: 30, HomeCity: 1}
		if err := up.PutUser(&u, feature.UserStats{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := New(tab, trainToy(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	st := stream.New(stream.WithCities(2))
	streaming, err := New(tab, trainToy(t, 0), WithStreamAggregates(st), WithStreamWarmup(100))
	if err != nil {
		t.Fatal(err)
	}
	// A thin trickle: far below the warm-up threshold.
	for i := 0; i < 5; i++ {
		tx := txn.Transaction{ID: txn.TxnID(i), Day: 1, Sec: int32(i), From: 1, To: 2, Amount: 10, TransCity: 1}
		if err := streaming.Ingest(&tx); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	tx := txn.Transaction{ID: 99, From: 1, To: 2, Amount: 700, TransCity: 1}
	want, err := frozen.Score(ctx, &tx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := streaming.Score(ctx, &tx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Fatalf("thin window escaped the warm-up gate: %v != %v", got.Score, want.Score)
	}
}

// trainCityToy returns a bundle whose classifier keys on the
// city_fraud_rate feature (column 13 of the basic layout), so scores move
// when the live window's city statistics move.
func trainCityToy(t testing.TB) *Bundle {
	t.Helper()
	r := rng.New(5)
	n := 2000
	m := feature.NewMatrix(n, feature.NumBasic)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		rate := r.Float64()
		m.Set(i, 13, rate) // city_fraud_rate
		labels[i] = rate > 0.3 && r.Bool(0.95)
	}
	clf := lr.Train(m, labels, lr.Config{Bins: 32, L1: 0.01, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 10, Seed: 1})
	city := feature.CityTable{Fraud: []float64{0.01, 0.01}, Share: []float64{0.5, 0.5}}
	b, err := NewBundle("city-toy", clf, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLiveCityStatsReachScoring is the end-to-end point of the streaming
// store: ingesting labelled fraud into a city raises that city's live
// fraud rate, and the very next Score of a transaction in that city sees
// it — no bundle rebuild, no re-deploy.
func TestLiveCityStatsReachScoring(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i}
		if err := up.PutUser(&u, feature.UserStats{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := stream.New(stream.WithCities(2), stream.WithWindow(8, 86400))
	srv, err := New(tab, trainCityToy(t), WithStreamAggregates(st), WithStreamWarmup(10))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := txn.Transaction{ID: 1, Day: 1, From: 1, To: 2, Amount: 100, TransCity: 0}

	before, err := srv.Score(ctx, &tx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Fraud {
		t.Fatalf("city 0 at the frozen 0.01 rate already alerts: %+v", before)
	}

	// A burst of confirmed fraud in city 0 arrives through Ingest.
	for i := 0; i < 50; i++ {
		ft := txn.Transaction{ID: txn.TxnID(100 + i), Day: 1, Sec: int32(i),
			From: 1, To: 2, Amount: 100, TransCity: 0, Fraud: true}
		if err := srv.Ingest(&ft); err != nil {
			t.Fatal(err)
		}
	}
	after, err := srv.Score(ctx, &tx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Score <= before.Score {
		t.Fatalf("score did not rise with the live fraud rate: before=%v after=%v",
			before.Score, after.Score)
	}
	if !after.Fraud {
		t.Fatalf("burst of labelled fraud in the city did not trip the alert: %+v", after)
	}
}
