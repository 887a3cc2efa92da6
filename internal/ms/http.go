package ms

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"titant/internal/decision"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// Request-body bounds: oversized payloads are rejected before they are
// buffered or parsed.
const (
	maxBundleBytes = 64 << 20 // POST /v1/models
	maxScoreBytes  = 1 << 20  // POST /v1/score
	maxBatchBytes  = 64 << 20 // POST /v1/score/batch hard ceiling
	maxPolicyBytes = 1 << 20  // POST /v1/policy
	// maxTxnJSONBytes generously bounds one transaction's wire size; the
	// batch body cap derives from it (clamped to maxBatchBytes) to keep
	// the parse cost proportional to the configured batch limit.
	maxTxnJSONBytes = 512
)

// TxnRequest is the JSON wire format of a scoring request.
type TxnRequest struct {
	ID         int64   `json:"id"`
	Day        int     `json:"day"`
	Sec        int32   `json:"sec"`
	From       int32   `json:"from"`
	To         int32   `json:"to"`
	Amount     float32 `json:"amount"`
	TransCity  uint16  `json:"trans_city"`
	DeviceRisk float32 `json:"device_risk"`
	IPRisk     float32 `json:"ip_risk"`
	Channel    uint8   `json:"channel"`
}

// Txn converts the wire format to the internal record.
func (r *TxnRequest) Txn() txn.Transaction {
	return txn.Transaction{
		ID: txn.TxnID(r.ID), Day: txn.Day(r.Day), Sec: r.Sec,
		From: txn.UserID(r.From), To: txn.UserID(r.To),
		Amount: r.Amount, TransCity: r.TransCity,
		DeviceRisk: r.DeviceRisk, IPRisk: r.IPRisk,
		Channel: txn.Channel(r.Channel),
	}
}

// BatchRequest is the wire format of POST /v1/score/batch.
type BatchRequest struct {
	Transactions []TxnRequest `json:"transactions"`
}

// IngestRequest is the wire format of POST /v1/ingest: a transaction plus
// its fraud label, if known. Completed transfers are ingested unlabelled
// as they happen; when a delayed fraud report arrives (days later, per
// the paper), the transaction is re-sent with fraud=true so the window's
// city fraud rates incorporate it.
type IngestRequest struct {
	TxnRequest
	Fraud bool `json:"fraud"`
}

// Txn converts the wire format to the internal record, label included.
func (r *IngestRequest) Txn() txn.Transaction {
	t := r.TxnRequest.Txn()
	t.Fraud = r.Fraud
	return t
}

// IngestBatchRequest is the wire format of POST /v1/ingest/batch.
type IngestBatchRequest struct {
	Transactions []IngestRequest `json:"transactions"`
}

// IngestResponse reports how many transactions an ingest call submitted
// to the live window. The window itself may still shed a submission as
// out-of-window (too old, or an uncorroborated far-future timestamp);
// those show up in the store's Dropped counter, not as request errors.
type IngestResponse struct {
	Ingested int `json:"ingested"`
}

// BatchResponse carries the batch verdicts in request order.
type BatchResponse struct {
	Verdicts []Verdict `json:"verdicts"`
}

// APIError is the JSON error envelope body of every non-2xx v1 response:
// {"error": {"code": "...", "message": "...", "trace_id": "..."}}. The
// trace ID ties the error to its request trace; it is present whenever
// the request passed through the trace middleware (all HTTP serving).
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// writeJSON marshals before touching the response so an unencodable value
// (e.g. a bundle whose threshold froze to +Inf on degenerate training
// data) yields a 500 envelope rather than a silent empty 200.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = json.Marshal(errorEnvelope{APIError{
			Code: "internal", Message: "encode response: " + err.Error(),
		}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}

// writeError writes the error envelope, folding in the request's trace
// ID from the response header the trace middleware stamped — so the
// body of every error names the trace to grep for, without threading
// the ID through each handler.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{APIError{
		Code: code, Message: msg,
		TraceID: w.Header().Get(telemetry.TraceHeader),
	}})
}

// CheckBearer reports whether the request carries the given bearer token,
// comparing in constant time. Daemons adding their own model-management
// routes should guard them with the same check.
func CheckBearer(r *http.Request, token string) bool {
	return subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+token)) == 1
}

// writeScoreError maps the engine's typed errors onto HTTP statuses.
func writeScoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrRateLimited):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "rate_limited", err.Error())
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", err.Error())
	case errors.Is(err, ErrUserNotFound):
		writeError(w, http.StatusNotFound, "user_not_found", err.Error())
	case errors.Is(err, ErrBatchTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", err.Error())
	case errors.Is(err, ErrStreamDisabled):
		writeError(w, http.StatusConflict, "stream_disabled", err.Error())
	case errors.Is(err, ErrPolicyDisabled):
		writeError(w, http.StatusConflict, "policy_disabled", err.Error())
	case errors.Is(err, ErrBundleInvalid):
		writeError(w, http.StatusInternalServerError, "bundle_invalid", err.Error())
	case errors.Is(err, ErrDimensionMismatch):
		writeError(w, http.StatusInternalServerError, "dimension_mismatch", err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "canceled", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// callerContext tags the request context with the admission caller
// identity carried by the X-Caller header, so per-caller quotas key on
// the client's declared identity (untagged requests share "default").
func callerContext(r *http.Request) context.Context {
	if c := r.Header.Get("X-Caller"); c != "" {
		return WithCallerContext(r.Context(), c)
	}
	return r.Context()
}

// decodeBody decodes a JSON request body capped at limit bytes, writing
// the appropriate envelope (413 for oversize, 400 for malformed) on
// failure.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error())
	} else {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
	}
	return false
}

// engineAPI is the serving surface the HTTP layer drives. Both the
// single-shard *Server and the horizontally sharded *ShardedEngine
// satisfy it, so the v1 wire protocol is engine-shape-agnostic: the same
// mux, auth, limits and error mapping serve one shard or N.
type engineAPI interface {
	Score(ctx context.Context, t *txn.Transaction) (Verdict, error)
	ScoreBatch(ctx context.Context, txns []txn.Transaction) ([]Verdict, error)
	Decide(ctx context.Context, t *txn.Transaction, sc decision.Scenario) (Decision, error)
	DecideBatch(ctx context.Context, txns []txn.Transaction, scenarios []decision.Scenario) ([]Decision, error)
	Ingest(t *txn.Transaction) error
	IngestBatch(txns []txn.Transaction) error
	Admit(ctx context.Context, n int) (func(), error)
	ModelInfo() ModelInfo
	SetBundle(b *Bundle) error
	currentPolicy() *decision.Policy
	SetPolicy(p *decision.Policy) error
	PolicyInfo() PolicyInfo
	Stats() Stats
	MetricsBody() []byte
	TraceBody() map[string]interface{}
	Health() HealthInfo
}

// api binds one engine to the v1 mux along with the request-shaping
// configuration (batch limit, tokens, per-endpoint histograms) the
// handlers need outside the engine interface.
type api struct {
	e           engineAPI
	maxBatch    int
	modelToken  string
	ingestToken string
	ingestHist  *telemetry.Histogram
	decideHist  *telemetry.Histogram
	minter      *telemetry.Minter
}

// Handler returns the v1 HTTP mux:
//
//	POST /v1/score         score one transaction
//	POST /v1/score/batch   score a batch in order
//	POST /v1/decide        score + policy decision for one transaction
//	POST /v1/decide/batch  decide a batch in order
//	POST /v1/ingest        feed one observed transaction into the live window
//	POST /v1/ingest/batch  feed a batch into the live window
//	GET  /v1/models        active bundle metadata
//	POST /v1/models        hot-swap an encoded bundle
//	GET  /v1/policy        active decision-policy document
//	POST /v1/policy        hot-swap a JSON policy document
//	GET  /v1/stats         latency, decision, shadow and drift stats
//	GET  /healthz          readiness: versions + subsystem enablement
//
// The ingest routes answer 409 stream_disabled on an engine built without
// WithStreamAggregates and can be guarded with WithIngestToken; the
// decide routes answer 409 policy_disabled without WithPolicy, and
// POST /v1/policy shares WithModelToken's guard with POST /v1/models (a
// policy swap changes live risk decisions exactly as a model swap does).
func (s *Server) Handler() http.Handler {
	return (&api{
		e: s, maxBatch: s.maxBatch,
		modelToken: s.modelToken, ingestToken: s.ingestToken,
		ingestHist: s.ingestHist, decideHist: s.decideHist,
		minter: s.minter,
	}).handler()
}

// Handler returns the v1 HTTP mux over the sharded engine — the same
// routes, auth and error contract as Server.Handler, with batch bodies
// scattered across shards and stats/health merged fleet-wide.
func (se *ShardedEngine) Handler() http.Handler {
	return (&api{
		e: se, maxBatch: se.maxBatch,
		modelToken: se.modelToken, ingestToken: se.ingestToken,
		ingestHist: se.ingestHist, decideHist: se.decideHist,
		minter: se.minter,
	}).handler()
}

func (a *api) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/score", a.handleScore)
	mux.HandleFunc("/v1/score/batch", a.handleScoreBatch)
	mux.HandleFunc("/v1/decide", a.handleDecide)
	mux.HandleFunc("/v1/decide/batch", a.handleDecideBatch)
	mux.HandleFunc("/v1/ingest", a.handleIngest)
	mux.HandleFunc("/v1/ingest/batch", a.handleIngestBatch)
	mux.HandleFunc("/v1/models", a.handleModels)
	mux.HandleFunc("/v1/policy", a.handlePolicy)
	mux.HandleFunc("/v1/stats", a.handleStats)
	mux.HandleFunc("/v1/debug/trace", a.handleDebugTrace)
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", a.handleHealthz)
	return a.traceMiddleware(mux)
}

// traceMiddleware assigns every request its trace identity: a
// well-formed X-Trace-Id header is adopted (so a trace spans router →
// shard → response), anything else gets a freshly minted ID. The ID is
// stamped on the response header before the handler runs — success,
// error and degraded responses all carry it — and injected into the
// request context so the engine's span tracker can attribute stage
// timings to it.
func (a *api) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := telemetry.ParseTraceID(r.Header.Get(telemetry.TraceHeader))
		if !ok {
			id = a.minter.Mint()
		}
		w.Header().Set(telemetry.TraceHeader, id.String())
		next.ServeHTTP(w, r.WithContext(telemetry.WithTrace(r.Context(), id)))
	})
}

// handleMetrics serves the Prometheus text exposition (format 0.0.4).
func (a *api) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(a.e.MetricsBody())
}

// handleDebugTrace serves the stage-timing and slow-exemplar dump.
func (a *api) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, a.e.TraceBody())
}

func (a *api) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	var req TxnRequest
	if !decodeBody(w, r, maxScoreBytes, &req) {
		return
	}
	t := req.Txn()
	v, err := a.e.Score(callerContext(r), &t)
	if err != nil {
		writeScoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// batchBodyLimit derives a batch route's body cap from the engine's batch
// limit (clamped to the hard ceiling), keeping parse cost proportional to
// the configured batch size.
func (a *api) batchBodyLimit() int64 {
	limit := int64(maxBatchBytes)
	if a.maxBatch > 0 {
		if l := int64(a.maxBatch)*maxTxnJSONBytes + 1024; l < limit {
			limit = l
		}
	}
	return limit
}

func (a *api) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	var req BatchRequest
	if !decodeBody(w, r, a.batchBodyLimit(), &req) {
		return
	}
	// Reject oversize batches before converting, so a body of minimal
	// JSON objects can't cost a second large allocation.
	if a.maxBatch > 0 && len(req.Transactions) > a.maxBatch {
		writeScoreError(w, batchTooLarge(len(req.Transactions), a.maxBatch))
		return
	}
	txns := make([]txn.Transaction, len(req.Transactions))
	for i := range req.Transactions {
		txns[i] = req.Transactions[i].Txn()
	}
	verdicts, err := a.e.ScoreBatch(callerContext(r), txns)
	if err != nil {
		writeScoreError(w, err)
		return
	}
	if verdicts == nil {
		verdicts = []Verdict{}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Verdicts: verdicts})
}

// DecideRequest is the wire format of POST /v1/decide: a transaction
// plus the scenario it arrived under (omitted or empty = default).
type DecideRequest struct {
	TxnRequest
	Scenario string `json:"scenario,omitempty"`
}

// DecideBatchRequest is the wire format of POST /v1/decide/batch.
type DecideBatchRequest struct {
	Transactions []DecideRequest `json:"transactions"`
}

// DecideBatchResponse carries the batch decisions in request order.
type DecideBatchResponse struct {
	Decisions []Decision `json:"decisions"`
}

func (a *api) handleDecide(w http.ResponseWriter, r *http.Request) {
	defer a.recordEndpoint(a.decideHist, time.Now())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	var req DecideRequest
	if !decodeBody(w, r, maxScoreBytes, &req) {
		return
	}
	sc, err := decision.ParseScenario(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	t := req.TxnRequest.Txn()
	d, err := a.e.Decide(callerContext(r), &t, sc)
	if err != nil {
		writeScoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (a *api) handleDecideBatch(w http.ResponseWriter, r *http.Request) {
	defer a.recordEndpoint(a.decideHist, time.Now())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	var req DecideBatchRequest
	if !decodeBody(w, r, a.batchBodyLimit(), &req) {
		return
	}
	if a.maxBatch > 0 && len(req.Transactions) > a.maxBatch {
		writeScoreError(w, batchTooLarge(len(req.Transactions), a.maxBatch))
		return
	}
	txns := make([]txn.Transaction, len(req.Transactions))
	scenarios := make([]decision.Scenario, len(req.Transactions))
	for i := range req.Transactions {
		sc, err := decision.ParseScenario(req.Transactions[i].Scenario)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("transaction %d: %v", i, err))
			return
		}
		txns[i] = req.Transactions[i].TxnRequest.Txn()
		scenarios[i] = sc
	}
	decisions, err := a.e.DecideBatch(callerContext(r), txns, scenarios)
	if err != nil {
		writeScoreError(w, err)
		return
	}
	if decisions == nil {
		decisions = []Decision{}
	}
	writeJSON(w, http.StatusOK, DecideBatchResponse{Decisions: decisions})
}

func (a *api) handlePolicy(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		pol := a.e.currentPolicy()
		if pol == nil {
			writeError(w, http.StatusNotFound, "policy_disabled", ErrPolicyDisabled.Error())
			return
		}
		raw, err := pol.Encode()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(append(raw, '\n'))
	case http.MethodPost:
		// Same guard as POST /v1/models: a policy swap changes live risk
		// decisions exactly as a model swap does.
		if a.modelToken != "" && !CheckBearer(r, a.modelToken) {
			writeError(w, http.StatusUnauthorized, "unauthorized", "policy swap requires a valid bearer token")
			return
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPolicyBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "policy_too_large", err.Error())
				return
			}
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		pol, err := decision.Parse(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "policy_invalid", err.Error())
			return
		}
		if err := a.e.SetPolicy(pol); err != nil {
			// Replace-only: decisioning cannot be switched on over the
			// wire when the operator left it off.
			if errors.Is(err, ErrPolicyDisabled) {
				writeError(w, http.StatusConflict, "policy_disabled", err.Error())
				return
			}
			writeError(w, http.StatusBadRequest, "policy_invalid", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, a.e.PolicyInfo())
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET or POST only")
	}
}

// recordEndpoint lands one request's wall time in a per-endpoint
// histogram (deferred at handler entry, so errors are measured too).
func (a *api) recordEndpoint(h *telemetry.Histogram, start time.Time) {
	h.Record(time.Since(start))
}

// checkIngestAuth enforces the optional ingest bearer token, writing the
// 401 envelope on failure.
func (a *api) checkIngestAuth(w http.ResponseWriter, r *http.Request) bool {
	if a.ingestToken != "" && !CheckBearer(r, a.ingestToken) {
		writeError(w, http.StatusUnauthorized, "unauthorized", "ingest requires a valid bearer token")
		return false
	}
	return true
}

func (a *api) handleIngest(w http.ResponseWriter, r *http.Request) {
	defer a.recordEndpoint(a.ingestHist, time.Now())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	if !a.checkIngestAuth(w, r) {
		return
	}
	var req IngestRequest
	if !decodeBody(w, r, maxScoreBytes, &req) {
		return
	}
	// Ingest takes no context, so admission runs here: the one request
	// path that bypasses Score/Decide still honors quotas and the
	// inflight bound.
	release, err := a.e.Admit(callerContext(r), 1)
	if err != nil {
		writeScoreError(w, err)
		return
	}
	defer release()
	t := req.Txn()
	if err := a.e.Ingest(&t); err != nil {
		writeScoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Ingested: 1})
}

func (a *api) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	defer a.recordEndpoint(a.ingestHist, time.Now())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	if !a.checkIngestAuth(w, r) {
		return
	}
	var req IngestBatchRequest
	if !decodeBody(w, r, a.batchBodyLimit(), &req) {
		return
	}
	if a.maxBatch > 0 && len(req.Transactions) > a.maxBatch {
		writeScoreError(w, batchTooLarge(len(req.Transactions), a.maxBatch))
		return
	}
	release, err := a.e.Admit(callerContext(r), len(req.Transactions))
	if err != nil {
		writeScoreError(w, err)
		return
	}
	defer release()
	txns := make([]txn.Transaction, len(req.Transactions))
	for i := range req.Transactions {
		txns[i] = req.Transactions[i].Txn()
	}
	if err := a.e.IngestBatch(txns); err != nil {
		writeScoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Ingested: len(txns)})
}

func (a *api) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, a.e.ModelInfo())
	case http.MethodPost:
		if a.modelToken != "" && !CheckBearer(r, a.modelToken) {
			writeError(w, http.StatusUnauthorized, "unauthorized", "model swap requires a valid bearer token")
			return
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBundleBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "bundle_too_large", err.Error())
				return
			}
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		b, err := DecodeBundle(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bundle_invalid", err.Error())
			return
		}
		if err := a.e.SetBundle(b); err != nil {
			writeError(w, http.StatusBadRequest, "bundle_invalid", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, a.e.ModelInfo())
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET or POST only")
	}
}

func (a *api) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, a.e.Stats())
}

// HealthInfo is the GET /healthz readiness body: which bundle and policy
// versions are live and which serving subsystems are enabled, so a
// deployment controller can verify a daemon actually carries the
// configuration it was rolled out with instead of trusting a bare 200.
type HealthInfo struct {
	Status        string `json:"status"`
	BundleVersion string `json:"bundle_version"`
	PolicyVersion string `json:"policy_version,omitempty"`
	Stream        bool   `json:"stream"`
	Admission     bool   `json:"admission"`
	UserCache     bool   `json:"user_cache"`
	Policy        bool   `json:"policy"`
	Shadow        bool   `json:"shadow"`
	Drift         bool   `json:"drift"`
	DriftAlert    bool   `json:"drift_alert,omitempty"`
	EventLog      bool   `json:"event_log"`
	Replayed      int64  `json:"replayed,omitempty"`
	Shards        int    `json:"shards,omitempty"` // >1 on a sharded engine
}

// Health snapshots the readiness view served by GET /healthz.
func (s *Server) Health() HealthInfo {
	return HealthInfo{
		Status:        "ok",
		BundleVersion: s.BundleVersion(),
		PolicyVersion: s.PolicyVersion(),
		Stream:        s.StreamEnabled(),
		Admission:     s.AdmissionEnabled(),
		UserCache:     s.UserCacheEnabled(),
		Policy:        s.PolicyEnabled(),
		Shadow:        s.ShadowEnabled(),
		Drift:         s.DriftEnabled(),
		DriftAlert:    s.DriftAlerted(),
		EventLog:      s.EventLogEnabled(),
		Replayed:      s.EventLogReplayed(),
	}
}

func (a *api) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// HEAD stays allowed: load balancers commonly probe liveness with it
	// (net/http suppresses the body automatically).
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, a.e.Health())
}

// ListenAndServe serves the v1 API on addr until ctx is cancelled, then
// shuts down gracefully, draining in-flight requests for up to five
// seconds. It returns nil after a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return ListenAndServe(ctx, addr, s.Handler())
}

// ListenAndServe serves the sharded v1 API on addr with the same
// graceful-shutdown contract as Server.ListenAndServe.
func (se *ShardedEngine) ListenAndServe(ctx context.Context, addr string) error {
	return ListenAndServe(ctx, addr, se.Handler())
}

// ListenAndServe serves handler on addr with the same graceful-shutdown
// contract as Server.ListenAndServe, for daemons that wrap the v1 mux
// with extra routes.
func ListenAndServe(ctx context.Context, addr string, handler http.Handler) error {
	hs := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		serr := hs.Shutdown(sctx)
		// Surface a startup failure (e.g. address already in use) that
		// raced the cancellation instead of reporting a clean shutdown.
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return serr
	}
}
