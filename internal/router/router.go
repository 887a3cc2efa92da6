// Package router is the scatter/gather tier that lifts the in-process
// shard split over the wire: a stateless daemon owning no model, no
// table and no window, only the hash ring. It fans the v1 batch routes
// out to shard servers with ms.ShardOf — the same jump hash the
// in-process engine partitions by — merges the responses in input order,
// replicates control-plane swaps (models, policy) to every shard, and
// folds the fleet's stats and health into single bodies.
//
// Shard servers are plain `titant serve` processes: each carries the
// full read-only feature table (replicated T+1 artifacts are cheap to
// copy) while the hot user-keyed state — user cache, stream window,
// event log — partitions naturally because each server only ever sees
// its owners' traffic.
//
// Partial failure is the steady state, and every proxied call runs
// through the resilience plane (see resilience.go): a deadline budget
// propagated from the caller's X-Deadline-Ms, bounded full-jitter
// retries for idempotent ops, a circuit breaker per shard, and optional
// tail-latency hedging for single-shard reads. Delivery semantics on
// the data plane stay at-most-once for ingest (no retry unless the
// caller sends X-Idempotency-Key); score and decide are read-only and
// retry freely. When a shard stays unreachable the router degrades
// rather than fails: batch responses carry per-item typed errors
// (ms.CodeShardUnavailable) and decide items fall back to a configured
// fail-closed action, so a verdict always arrives and is never silently
// wrong.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/ms"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// Request-body ceilings, mirroring the shard servers' own limits: the
// router never buffers more than a shard would accept.
const (
	maxSingleBytes  = 1 << 20
	maxBatchBytes   = 64 << 20
	maxControlBytes = 64 << 20
)

// Headers the resilience plane acts on.
const (
	// HeaderDeadline carries the caller's remaining budget in
	// milliseconds; the router re-propagates the per-attempt remainder
	// downstream so a shard never works past the caller's patience.
	HeaderDeadline = "X-Deadline-Ms"
	// HeaderIdempotencyKey opts an ingest request into retries: the
	// caller asserts replays are safe to deduplicate on its side.
	HeaderIdempotencyKey = "X-Idempotency-Key"
)

// Option configures a Router.
type Option func(*Router)

// WithTimeout bounds each proxied shard attempt (default 2s). Retries
// get a fresh attempt timeout each, inside the overall budget.
func WithTimeout(d time.Duration) Option {
	return func(rt *Router) {
		if d > 0 {
			rt.perTry = d
		}
	}
}

// WithBudget sets the default overall request budget used when the
// caller sends no X-Deadline-Ms (default 10s), and the gather margin
// reserved from every budget for merging (default 50ms).
func WithBudget(budget, margin time.Duration) Option {
	return func(rt *Router) {
		if budget > 0 {
			rt.budget = budget
		}
		if margin > 0 {
			rt.margin = margin
		}
	}
}

// WithRetries sets the retry budget for idempotent calls (default 2,
// i.e. up to 3 attempts) and the full-jitter backoff base/cap
// (defaults 25ms/250ms). retries 0 disables retrying.
func WithRetries(retries int, base, cap time.Duration) Option {
	return func(rt *Router) {
		if retries >= 0 {
			rt.retries = retries
		}
		if base > 0 {
			rt.backoff = base
		}
		if cap > 0 {
			rt.backoffCap = cap
		}
	}
}

// WithBreaker tunes the per-shard circuit breakers.
func WithBreaker(cfg BreakerConfig) Option {
	return func(rt *Router) { rt.brkCfg = cfg }
}

// WithHedge enables tail-latency hedging for single-shard reads: a
// second identical request launches if the first has not answered
// within max(floor, shard p99); the first success wins and the loser is
// cancelled. floor <= 0 disables hedging (the default).
func WithHedge(floor time.Duration) Option {
	return func(rt *Router) { rt.hedgeFloor = floor }
}

// WithFallbackAction sets the action degraded decide items carry
// (default ms.FallbackActionReview, the fail-closed stance).
func WithFallbackAction(action string) Option {
	return func(rt *Router) { rt.fallback = action }
}

// WithQuorum sets how many healthy shards /healthz needs to answer 200
// (default: a majority, n/2+1). Below quorum the fleet reports 503.
func WithQuorum(q int) Option {
	return func(rt *Router) { rt.quorum = q }
}

// WithTransport swaps the underlying HTTP transport — the seam the
// faultinject chaos layer plugs into.
func WithTransport(t http.RoundTripper) Option {
	return func(rt *Router) { rt.client.Transport = t }
}

// WithSeed seeds the backoff-jitter RNG (default 1), keeping chaos runs
// reproducible end to end.
func WithSeed(seed uint64) Option {
	return func(rt *Router) { rt.seed = seed }
}

// Router fans v1 traffic across a fixed shard ring.
type Router struct {
	shards []string // base URLs, index = shard number
	client *http.Client

	// Resilience-plane tuning (see the Option funcs for semantics).
	perTry     time.Duration
	budget     time.Duration
	margin     time.Duration
	retries    int
	backoff    time.Duration
	backoffCap time.Duration
	hedgeFloor time.Duration
	fallback   string
	quorum     int
	brkCfg     BreakerConfig
	seed       uint64

	brk []*breaker
	lat []*telemetry.Histogram // successful per-shard call latency, feeds the hedge delay
	rnd *lockedRand
	now func() time.Time

	// Observability plane: the trace-ID minter for requests arriving
	// without an X-Trace-Id, and the per-endpoint stage span tracker
	// behind /v1/debug/trace and the router's /metrics page.
	minter *telemetry.Minter
	tel    *telemetry.Tracker

	// Observability counters for the /v1/stats "router" section.
	singles   atomic.Int64 // single-row requests forwarded to one owner
	batches   atomic.Int64 // batch requests scattered
	fanouts   atomic.Int64 // sub-batches dispatched by scatters
	controls  atomic.Int64 // model/policy swaps replicated
	errors    atomic.Int64 // upstream failures relayed or detected
	retried   atomic.Int64 // retry attempts issued
	hedges    atomic.Int64 // hedge legs launched
	hedgeWins atomic.Int64 // hedge legs that answered first
	degraded  atomic.Int64 // items answered with a degraded envelope
	deadlines atomic.Int64 // calls abandoned on an exhausted caller budget
}

// New builds a router over the given shard base URLs (e.g.
// "http://10.0.0.1:8080"). Order is identity: index i is shard i of
// len(shards), and must stay stable across router restarts or users
// would re-partition silently.
func New(shards []string, opts ...Option) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("router: no shards")
	}
	cleaned := make([]string, len(shards))
	for i, s := range shards {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			return nil, fmt.Errorf("router: empty shard URL at index %d", i)
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		cleaned[i] = s
	}
	rt := &Router{
		shards:     cleaned,
		client:     &http.Client{},
		perTry:     2 * time.Second,
		budget:     10 * time.Second,
		margin:     50 * time.Millisecond,
		retries:    2,
		backoff:    25 * time.Millisecond,
		backoffCap: 250 * time.Millisecond,
		fallback:   ms.FallbackActionReview,
		seed:       1,
		now:        time.Now,
	}
	for _, o := range opts {
		o(rt)
	}
	fb, err := ms.ParseFallbackAction(rt.fallback)
	if err != nil {
		return nil, err
	}
	rt.fallback = fb
	if rt.quorum < 0 || rt.quorum > len(cleaned) {
		return nil, fmt.Errorf("router: quorum %d out of range for %d shards", rt.quorum, len(cleaned))
	}
	if rt.quorum == 0 {
		rt.quorum = len(cleaned)/2 + 1
	}
	rt.rnd = newLockedRand(rt.seed)
	rt.brk = make([]*breaker, len(cleaned))
	rt.lat = make([]*telemetry.Histogram, len(cleaned))
	for i := range cleaned {
		rt.brk[i] = newBreaker(rt.brkCfg, rt.now)
		rt.lat[i] = telemetry.NewHistogram(nil)
	}
	rt.minter = telemetry.NewMinter(rt.seed)
	rt.tel = telemetry.NewTracker([]string{
		"score", "decide", "ingest", "score_batch", "decide_batch", "ingest_batch",
	}, 0)
	return rt, nil
}

// Shards returns the ring width.
func (rt *Router) Shards() int { return len(rt.shards) }

// ownerShard returns the index of the shard owning user u.
func (rt *Router) ownerShard(u txn.UserID) int {
	return ms.ShardOf(u, len(rt.shards))
}

// Handler returns the router's mux: the shard servers' v1 surface, one
// hop up.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/score", rt.single)
	mux.HandleFunc("/v1/decide", rt.single)
	mux.HandleFunc("/v1/ingest", rt.single)
	mux.HandleFunc("/v1/score/batch", func(w http.ResponseWriter, r *http.Request) {
		rt.batch(w, r, "verdicts")
	})
	mux.HandleFunc("/v1/decide/batch", func(w http.ResponseWriter, r *http.Request) {
		rt.batch(w, r, "decisions")
	})
	mux.HandleFunc("/v1/ingest/batch", func(w http.ResponseWriter, r *http.Request) {
		rt.batch(w, r, "")
	})
	mux.HandleFunc("/v1/models", rt.control)
	mux.HandleFunc("/v1/policy", rt.control)
	mux.HandleFunc("/v1/stats", rt.stats)
	mux.HandleFunc("/v1/debug/trace", rt.debugTrace)
	mux.HandleFunc("/metrics", rt.metrics)
	mux.HandleFunc("/healthz", rt.healthz)
	return rt.traceMiddleware(mux)
}

// traceMiddleware adopts the caller's X-Trace-Id (minting one when the
// header is absent or malformed), echoes it on the response, rewrites it
// onto the inbound request so forwardHeaders propagates one consistent
// ID to every shard attempt, and carries it in the request context for
// span observation.
func (rt *Router) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := telemetry.ParseTraceID(r.Header.Get(telemetry.TraceHeader))
		if !ok {
			id = rt.minter.Mint()
		}
		hex := id.String()
		w.Header().Set(telemetry.TraceHeader, hex)
		r.Header.Set(telemetry.TraceHeader, hex)
		next.ServeHTTP(w, r.WithContext(telemetry.WithTrace(r.Context(), id)))
	})
}

// ListenAndServe serves the router on addr with the shard servers'
// graceful-shutdown contract.
func (rt *Router) ListenAndServe(ctx context.Context, addr string) error {
	return ms.ListenAndServe(ctx, addr, rt.Handler())
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e := map[string]string{"code": code, "message": msg}
	// The trace middleware stamps X-Trace-Id on the response header
	// before any handler runs; fold it into the envelope so error bodies
	// are greppable even when the caller dropped the headers.
	if id := w.Header().Get(telemetry.TraceHeader); id != "" {
		e["trace_id"] = id
	}
	_ = json.NewEncoder(w).Encode(map[string]interface{}{"error": e})
}

func writeJSON(w http.ResponseWriter, status int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// forwardHeaders copies the request headers shard servers act on.
// X-Caller rides through so per-caller admission quotas hold across the
// wire tier; X-Idempotency-Key rides through so shards (and the retry
// classifier) see the caller's dedup assertion; X-Trace-Id (rewritten by
// the trace middleware to the adopted-or-minted ID) rides through so one
// trace names a verdict's whole path across tiers — retries and hedge
// legs included, since every attempt copies from the same source
// request. X-Deadline-Ms is NOT copied — the router re-derives it per
// attempt from the remaining budget.
func forwardHeaders(dst *http.Request, src *http.Request) {
	for _, k := range []string{"Content-Type", "Authorization", "X-Caller", HeaderIdempotencyKey, telemetry.TraceHeader} {
		if v := src.Header.Get(k); v != "" {
			dst.Header.Set(k, v)
		}
	}
}

// upstream is one proxied shard response, fully buffered.
type upstream struct {
	status int
	header http.Header
	body   []byte
	err    error // transport failure (no response)
}

// failed reports whether the upstream is a transport failure or 5xx —
// the failure class that counts against breakers and triggers
// degradation. 4xx means the shard is healthy and refusing.
func (u upstream) failed() bool { return u.err != nil || u.status >= 500 }

// callSpec describes one logical shard call for the resilience plane.
type callSpec struct {
	method string
	path   string
	body   []byte
	shard  int
	// retryable marks idempotent ops (score/decide/stats/healthz, and
	// ingest only with an idempotency key) eligible for the retry loop.
	retryable bool
	// hedged marks single-shard reads eligible for tail-latency hedging.
	hedged bool
	// noBreaker bypasses the circuit breaker entirely (health probes
	// must tell the truth, not echo the breaker's opinion).
	noBreaker bool
	// spans, when set, accumulates the call's retry-backoff and hedge
	// stage durations. Each concurrent call (scatter goroutine, hedge
	// leg) must have its own buffer; the handler folds them together.
	spans *telemetry.Spans
}

// attempt issues one HTTP attempt for spec, bounded by the smaller of
// the per-try timeout and the remaining deadline budget, propagating
// the remainder downstream as X-Deadline-Ms.
func (rt *Router) attempt(ctx context.Context, src *http.Request, deadline time.Time, spec callSpec) upstream {
	rem := deadline.Sub(rt.now())
	if rem <= 0 {
		return upstream{err: errBudgetExhausted}
	}
	per := rt.perTry
	clamped := false
	if per <= 0 || rem < per {
		per = rem
		clamped = true
	}
	actx, cancel := context.WithTimeout(ctx, per)
	defer cancel()
	var rd io.Reader
	if spec.body != nil {
		rd = bytes.NewReader(spec.body)
	}
	req, err := http.NewRequestWithContext(actx, spec.method, rt.shards[spec.shard]+spec.path, rd)
	if err != nil {
		return upstream{err: err}
	}
	forwardHeaders(req, src)
	req.Header.Set(HeaderDeadline, strconv.FormatInt(per.Milliseconds(), 10))
	resp, err := rt.client.Do(req)
	if err != nil {
		// A timeout on an attempt that was clamped to the remaining
		// budget IS the budget running out, not the shard being slow.
		if clamped && errors.Is(err, context.DeadlineExceeded) {
			return upstream{err: errBudgetExhausted}
		}
		if ctx.Err() != nil && deadline.Sub(rt.now()) <= 0 {
			return upstream{err: errBudgetExhausted}
		}
		return upstream{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxControlBytes))
	if err != nil {
		return upstream{err: err}
	}
	return upstream{status: resp.StatusCode, header: resp.Header, body: data}
}

// requestBudget derives this request's work deadline: the caller's
// X-Deadline-Ms (capped by the router's own budget) minus the gather
// margin, so merging finishes before the caller hangs up. The margin
// never eats more than half the budget.
func (rt *Router) requestBudget(r *http.Request) (context.Context, context.CancelFunc, time.Time) {
	budget := rt.budget
	if h := r.Header.Get(HeaderDeadline); h != "" {
		if msv, err := strconv.ParseInt(h, 10, 64); err == nil && msv > 0 {
			if d := time.Duration(msv) * time.Millisecond; d < budget {
				budget = d
			}
		}
	}
	work := budget - rt.margin
	if work < budget/2 {
		work = budget / 2
	}
	deadline := rt.now().Add(work)
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	return ctx, cancel, deadline
}

// itemError classifies one failed upstream into the typed per-item
// error the degraded envelopes carry.
func (rt *Router) itemError(u upstream, shard int) *ms.ItemError {
	code := ms.CodeShardUnavailable
	msg := fmt.Sprintf("shard %d unavailable", shard)
	switch {
	case errors.Is(u.err, errBudgetExhausted):
		code = ms.CodeDeadlineExceeded
		msg = fmt.Sprintf("deadline budget exhausted before shard %d answered", shard)
	case errors.Is(u.err, errCircuitOpen):
		msg = fmt.Sprintf("shard %d circuit open", shard)
	case u.err != nil:
		msg = fmt.Sprintf("shard %d: %v", shard, u.err)
	case u.status >= 500:
		msg = fmt.Sprintf("shard %d answered %d", shard, u.status)
	}
	return &ms.ItemError{Code: code, Shard: shard, Message: msg}
}

// writeFailure writes the typed error for a wholly-failed call:
// 504 deadline_exceeded when the caller's budget ran out, 503
// shard_unavailable otherwise.
func (rt *Router) writeFailure(w http.ResponseWriter, u upstream, shard int) {
	ie := rt.itemError(u, shard)
	status := http.StatusServiceUnavailable
	if ie.Code == ms.CodeDeadlineExceeded {
		status = http.StatusGatewayTimeout
	}
	writeError(w, status, ie.Code, ie.Message)
}

// relay writes one upstream response through unchanged (a transport
// failure maps to 502 shard_unreachable). A Retry-After already set on
// w (the cross-shard max) is not overwritten.
func (rt *Router) relay(w http.ResponseWriter, u upstream) {
	if u.err != nil {
		rt.errors.Add(1)
		writeError(w, http.StatusBadGateway, "shard_unreachable", u.err.Error())
		return
	}
	if u.status >= 400 {
		rt.errors.Add(1)
	}
	if ct := u.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := u.header.Get("Retry-After"); ra != "" && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(u.status)
	_, _ = w.Write(u.body)
}

// maxRetryAfter returns the largest Retry-After advertised by any
// upstream: a caller backing off a sharded fleet must wait for the
// slowest shard, not whichever happened to answer last.
func maxRetryAfter(ups []upstream) string {
	best, bestN := "", -1.0
	for _, u := range ups {
		if u.header == nil {
			continue
		}
		ra := u.header.Get("Retry-After")
		if ra == "" {
			continue
		}
		if n, err := strconv.ParseFloat(ra, 64); err == nil {
			if n > bestN {
				bestN, best = n, ra
			}
		} else if best == "" {
			best = ra
		}
	}
	return best
}

// txnPeek reads just the routing key and id out of a transaction body.
type txnPeek struct {
	ID   int64 `json:"id"`
	From int32 `json:"from"`
}

// single forwards a one-transaction request (score/decide/ingest) whole
// to the sender's owner shard. Score and decide are idempotent reads:
// they retry, and hedge when enabled. Ingest is at-most-once — one
// attempt, no retry — unless the caller opts in with X-Idempotency-Key.
// A decide that cannot be served still answers 200, carrying the
// fail-closed fallback action and a degraded marker.
func (rt *Router) single(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSingleBytes))
	if err != nil {
		rt.readError(w, err)
		return
	}
	var peek txnPeek
	if err := json.Unmarshal(body, &peek); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	rt.singles.Add(1)
	start := rt.now()
	var spans telemetry.Spans
	defer func() { rt.observe(r, endpointName(r.URL.Path), rt.now().Sub(start), &spans) }()
	ctx, cancel, deadline := rt.requestBudget(r)
	defer cancel()
	spec := callSpec{method: http.MethodPost, path: r.URL.Path, body: body, shard: rt.ownerShard(txn.UserID(peek.From)), spans: &spans}
	switch r.URL.Path {
	case "/v1/ingest":
		spec.retryable = r.Header.Get(HeaderIdempotencyKey) != ""
	default: // score, decide
		spec.retryable, spec.hedged = true, true
	}
	rstart := rt.now()
	u := rt.hedgedCall(ctx, r, deadline, spec)
	spans[telemetry.StageRoute] = rt.now().Sub(rstart)
	if !u.failed() {
		rt.relay(w, u)
		return
	}
	rt.errors.Add(1)
	if r.URL.Path == "/v1/decide" {
		rt.degraded.Add(1)
		writeJSON(w, http.StatusOK, ms.DegradedDecision{
			DegradedVerdict: ms.DegradedVerdict{
				TxnID:    txn.TxnID(peek.ID),
				Degraded: true,
				Error:    rt.itemError(u, spec.shard),
				TraceID:  w.Header().Get(telemetry.TraceHeader),
			},
			Action: rt.fallback,
			Reason: "fallback: owner shard unavailable",
		})
		return
	}
	rt.writeFailure(w, u, spec.shard)
}

// endpointName maps a /v1 data-plane path to its span-tracker endpoint
// ("/v1/score/batch" → "score_batch").
func endpointName(path string) string {
	return strings.ReplaceAll(strings.TrimPrefix(path, "/v1/"), "/", "_")
}

// observe folds one request's spans into the router's tracker under the
// request's trace ID.
func (rt *Router) observe(r *http.Request, endpoint string, total time.Duration, spans *telemetry.Spans) {
	et := rt.tel.Endpoint(endpoint)
	if et == nil {
		return
	}
	id, _ := telemetry.TraceFrom(r.Context())
	et.Observe(id, total, spans)
}

func (rt *Router) readError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", err.Error())
}

// batchBody is a batch request with each transaction kept raw, so the
// router routes on the "from" field alone and never re-encodes fields it
// does not understand (labels, scenarios, future additions all survive).
type batchBody struct {
	Transactions []json.RawMessage `json:"transactions"`
}

// batch scatters a batch route across owner shards and gathers the
// responses in input order. itemsKey names the response array to merge
// ("verdicts", "decisions"); "" merges ingest {"ingested": n} counts.
//
// Gather degrades instead of failing: a shard that cannot answer
// (circuit open, retries exhausted, 5xx) turns only its own items into
// typed degraded envelopes — score items report shard_unavailable,
// decide items additionally carry the fallback action — while the rest
// of the batch returns real verdicts. A shard answering 4xx still fails
// the whole batch (lowest shard index wins, the in-process engine's
// deterministic error order) with Retry-After maxed across shards.
func (rt *Router) batch(w http.ResponseWriter, r *http.Request, itemsKey string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err != nil {
		rt.readError(w, err)
		return
	}
	var req batchBody
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	rt.batches.Add(1)
	start := rt.now()
	var spans telemetry.Spans
	defer func() { rt.observe(r, endpointName(r.URL.Path), rt.now().Sub(start), &spans) }()
	n := len(rt.shards)
	groups := make([][]int, n)
	ids := make([]int64, len(req.Transactions))
	for i, tx := range req.Transactions {
		var peek txnPeek
		if err := json.Unmarshal(tx, &peek); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("transaction %d: malformed JSON: %v", i, err))
			return
		}
		ids[i] = peek.ID
		si := ms.ShardOf(txn.UserID(peek.From), n)
		groups[si] = append(groups[si], i)
	}

	ctx, cancel, deadline := rt.requestBudget(r)
	defer cancel()
	retryable := itemsKey != "" || r.Header.Get(HeaderIdempotencyKey) != ""
	ups := make([]upstream, n)
	callSpans := make([]telemetry.Spans, n) // one buffer per scatter goroutine
	var wg sync.WaitGroup
	scatterStart := rt.now()
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		rt.fanouts.Add(1)
		go func(si int, idxs []int) {
			defer wg.Done()
			sub := batchBody{Transactions: make([]json.RawMessage, len(idxs))}
			for k, i := range idxs {
				sub.Transactions[k] = req.Transactions[i]
			}
			body, err := json.Marshal(sub)
			if err != nil {
				ups[si] = upstream{err: err}
				return
			}
			ups[si] = rt.resilientCall(ctx, r, deadline, callSpec{
				method: http.MethodPost, path: r.URL.Path, body: body,
				shard: si, retryable: retryable, spans: &callSpans[si],
			})
		}(si, idxs)
	}
	wg.Wait()
	spans[telemetry.StageRoute] = rt.now().Sub(scatterStart)
	for i := range callSpans {
		spans[telemetry.StageRetry] += callSpans[i][telemetry.StageRetry]
	}

	// A 4xx is the shard refusing a request the router faithfully
	// forwarded (malformed row, over quota): relay it whole, lowest
	// failing shard index first, with the cross-shard max Retry-After.
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		if u := ups[si]; u.err == nil && u.status >= 400 && u.status < 500 {
			if ra := maxRetryAfter(ups); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			rt.relay(w, u)
			return
		}
	}

	gstart := rt.now()
	if itemsKey == "" {
		rt.gatherIngest(w, groups, ups)
	} else {
		rt.gatherItems(w, itemsKey, req, groups, ids, ups)
	}
	spans[telemetry.StageGather] = rt.now().Sub(gstart)
}

// gatherIngest merges per-shard ingest counts. Failed shards surface as
// a "failed" count plus typed per-shard errors; ingest has no per-item
// bodies to degrade.
func (rt *Router) gatherIngest(w http.ResponseWriter, groups [][]int, ups []upstream) {
	total, failedCount := 0, 0
	var failedShards []map[string]interface{}
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		u := ups[si]
		if u.failed() {
			rt.errors.Add(1)
			failedCount += len(idxs)
			failedShards = append(failedShards, map[string]interface{}{
				"shard": si, "count": len(idxs), "error": rt.itemError(u, si),
			})
			continue
		}
		var ir struct {
			Ingested int `json:"ingested"`
		}
		if err := json.Unmarshal(u.body, &ir); err != nil {
			rt.errors.Add(1)
			writeError(w, http.StatusBadGateway, "shard_bad_response", err.Error())
			return
		}
		total += ir.Ingested
	}
	out := map[string]interface{}{"ingested": total}
	if failedCount > 0 {
		out["failed"] = failedCount
		out["failed_shards"] = failedShards
	}
	writeJSON(w, http.StatusOK, out)
}

// gatherItems merges per-shard score/decide sub-arrays back into caller
// order, substituting typed degraded envelopes for items owned by
// failed shards.
func (rt *Router) gatherItems(w http.ResponseWriter, itemsKey string, req batchBody, groups [][]int, ids []int64, ups []upstream) {
	merged := make([]json.RawMessage, len(req.Transactions))
	degradedCount := 0
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		u := ups[si]
		if u.failed() {
			rt.errors.Add(1)
			ie := rt.itemError(u, si)
			traceID := w.Header().Get(telemetry.TraceHeader)
			for _, i := range idxs {
				degradedCount++
				rt.degraded.Add(1)
				dv := ms.DegradedVerdict{TxnID: txn.TxnID(ids[i]), Degraded: true, Error: ie, TraceID: traceID}
				var item interface{} = dv
				if itemsKey == "decisions" {
					item = ms.DegradedDecision{
						DegradedVerdict: dv,
						Action:          rt.fallback,
						Reason:          "fallback: owner shard unavailable",
					}
				}
				enc, _ := json.Marshal(item)
				merged[i] = enc
			}
			continue
		}
		var resp map[string]json.RawMessage
		if err := json.Unmarshal(u.body, &resp); err != nil {
			rt.errors.Add(1)
			writeError(w, http.StatusBadGateway, "shard_bad_response", err.Error())
			return
		}
		var items []json.RawMessage
		if err := json.Unmarshal(resp[itemsKey], &items); err != nil || len(items) != len(idxs) {
			rt.errors.Add(1)
			writeError(w, http.StatusBadGateway, "shard_bad_response",
				fmt.Sprintf("shard %d returned %d %s for %d transactions", si, len(items), itemsKey, len(idxs)))
			return
		}
		for k, i := range idxs {
			merged[i] = items[k]
		}
	}
	for i := range merged {
		if merged[i] == nil {
			merged[i] = json.RawMessage("null")
		}
	}
	out := map[string]interface{}{itemsKey: merged}
	if degradedCount > 0 {
		out["degraded"] = degradedCount
	}
	writeJSON(w, http.StatusOK, out)
}

// control handles /v1/models and /v1/policy. GET reads shard 0 (the
// fleet is swapped in lockstep, so any shard answers) and fails over in
// ring order when it cannot answer. POST replicates the swap to every
// shard in ring order with NO automatic retry — replication is
// at-most-once per shard, and a mid-ring failure leaves a mixed fleet
// with a response naming the failed shard and how far the swap got; the
// operator retries the idempotent swap until it lands everywhere, and
// /v1/stats surfaces the mix via "version_mixed".
func (rt *Router) control(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		ctx, cancel, deadline := rt.requestBudget(r)
		defer cancel()
		var last upstream
		for si := range rt.shards {
			u := rt.resilientCall(ctx, r, deadline, callSpec{
				method: http.MethodGet, path: r.URL.Path, shard: si,
			})
			if !u.failed() {
				rt.relay(w, u)
				return
			}
			last = u
		}
		rt.errors.Add(1)
		rt.writeFailure(w, last, len(rt.shards)-1)
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
		if err != nil {
			rt.readError(w, err)
			return
		}
		rt.controls.Add(1)
		ctx, cancel, deadline := rt.requestBudget(r)
		defer cancel()
		var last upstream
		for si := range rt.shards {
			u := rt.resilientCall(ctx, r, deadline, callSpec{
				method: http.MethodPost, path: r.URL.Path, body: body, shard: si,
			})
			if u.err != nil || u.status != http.StatusOK {
				rt.errors.Add(1)
				if u.err != nil {
					writeError(w, http.StatusBadGateway, "shard_unreachable",
						fmt.Sprintf("shard %d: %v (swap applied to %d of %d shards)", si, u.err, si, len(rt.shards)))
					return
				}
				rt.relay(w, u)
				return
			}
			last = u
		}
		rt.relay(w, last)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET or POST only")
	}
}

// routerStats is the /v1/stats "router" section: the ring, the
// router's own counters, per-shard breaker state, and the shards whose
// stats are missing from the merge.
type routerStats struct {
	Shards            []string       `json:"shards"`
	Singles           int64          `json:"singles"`
	Batches           int64          `json:"batches"`
	Fanouts           int64          `json:"fanouts"`
	Controls          int64          `json:"controls"`
	Errors            int64          `json:"errors"`
	Retries           int64          `json:"retries"`
	Hedges            int64          `json:"hedges"`
	HedgeWins         int64          `json:"hedge_wins"`
	DegradedItems     int64          `json:"degraded_items"`
	DeadlineExhausted int64          `json:"deadline_exhausted"`
	FallbackAction    string         `json:"fallback_action"`
	Breakers          []breakerStats `json:"breakers"`
	Unreachable       []int          `json:"unreachable,omitempty"`
}

// statsBody is the router's GET /v1/stats answer: the merged fleet
// snapshot plus the router section.
type statsBody struct {
	ms.Stats
	Router routerStats `json:"router"`
}

func (rt *Router) routerStats() routerStats {
	breakers := make([]breakerStats, len(rt.brk))
	for si, b := range rt.brk {
		breakers[si] = b.snapshot(si, rt.lat[si].Quantile(0.99))
	}
	return routerStats{
		Shards:            rt.shards,
		Singles:           rt.singles.Load(),
		Batches:           rt.batches.Load(),
		Fanouts:           rt.fanouts.Load(),
		Controls:          rt.controls.Load(),
		Errors:            rt.errors.Load(),
		Retries:           rt.retried.Load(),
		Hedges:            rt.hedges.Load(),
		HedgeWins:         rt.hedgeWins.Load(),
		DegradedItems:     rt.degraded.Load(),
		DeadlineExhausted: rt.deadlines.Load(),
		FallbackAction:    rt.fallback,
		Breakers:          breakers,
	}
}

// stats fans GET /v1/stats to every shard and folds the answers with
// mergeStats, adding the router section. Shards without an answer are
// listed, not fatal — stats is how operators see a degraded fleet, so
// it must answer while the fleet is degraded. Only a fleet with no
// answer at all is a 502, as is a body that cannot be merged.
func (rt *Router) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	ups := rt.fanGet(r, "/v1/stats", callSpec{retryable: true})
	merged, unanswered, err := mergeStats(ups)
	rt.errors.Add(int64(len(unanswered)))
	if err != nil {
		rt.errors.Add(1)
		writeError(w, http.StatusBadGateway, "shard_bad_response", err.Error())
		return
	}
	if len(unanswered) == len(ups) {
		writeError(w, http.StatusBadGateway, "shard_unreachable", "no shard answered /v1/stats")
		return
	}
	rs := rt.routerStats()
	rs.Unreachable = unanswered
	writeJSON(w, http.StatusOK, statsBody{Stats: merged, Router: rs})
}

// mergeStats decodes every shard's 200 answer into ms.Stats and folds
// them with ms.Merge, returning the shards that gave no stats. Only a
// 200 carries stats: a refusal such as a 429 from the shard's quota is
// an error envelope, and merging it would count a missing shard as an
// empty one.
func mergeStats(ups []upstream) (merged ms.Stats, unanswered []int, err error) {
	var parts []ms.Stats
	for si, u := range ups {
		if u.failed() || u.status != http.StatusOK {
			unanswered = append(unanswered, si)
			continue
		}
		var st ms.Stats
		if err := json.Unmarshal(u.body, &st); err != nil {
			return ms.Stats{}, unanswered, fmt.Errorf("shard %d /v1/stats: %w", si, err)
		}
		parts = append(parts, st)
	}
	merged, err = ms.Merge(parts)
	return merged, unanswered, err
}

// fanGet issues one GET per shard concurrently through the resilience
// plane.
func (rt *Router) fanGet(r *http.Request, path string, spec callSpec) []upstream {
	ctx, cancel, deadline := rt.requestBudget(r)
	defer cancel()
	ups := make([]upstream, len(rt.shards))
	var wg sync.WaitGroup
	for si := range rt.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s := spec
			s.method, s.path, s.shard = http.MethodGet, path, si
			ups[si] = rt.resilientCall(ctx, r, deadline, s)
		}(si)
	}
	wg.Wait()
	return ups
}

// healthz folds the fleet's readiness with quorum semantics: 200 "ok"
// when every shard answers ok, 200 "degraded" (with per-shard detail)
// while at least quorum shards are healthy — a load balancer must keep
// sending traffic to a fleet that can still serve most users — and 503
// "unavailable" only below quorum. Probes bypass the circuit breakers:
// health must report what the shard says now, not what the breaker
// remembers.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	ups := rt.fanGet(r, "/healthz", callSpec{retryable: true, noBreaker: true})
	type shardHealth struct {
		Shard   int    `json:"shard"`
		Status  string `json:"status"`
		Breaker string `json:"breaker"`
		Error   string `json:"error,omitempty"`
	}
	out := map[string]interface{}{"shards": len(rt.shards), "quorum": rt.quorum}
	statuses := make([]shardHealth, len(ups))
	healthy := 0
	for si, u := range ups {
		sh := shardHealth{Shard: si, Status: "ok", Breaker: breakerStateName(rt.brk[si].currentState())}
		switch {
		case u.err != nil:
			sh.Status, sh.Error = "unreachable", u.err.Error()
		case u.status != http.StatusOK:
			sh.Status = fmt.Sprintf("http_%d", u.status)
		default:
			var body map[string]interface{}
			if err := json.Unmarshal(u.body, &body); err != nil || body["status"] != "ok" {
				sh.Status = "degraded"
			} else {
				healthy++
				if _, ok := out["bundle_version"]; !ok {
					out["bundle_version"] = body["bundle_version"]
					if pv, ok := body["policy_version"]; ok {
						out["policy_version"] = pv
					}
				}
			}
		}
		statuses[si] = sh
	}
	out["shard_status"] = statuses
	out["healthy"] = healthy
	status := http.StatusOK
	switch {
	case healthy == len(rt.shards):
		out["status"] = "ok"
	case healthy >= rt.quorum:
		rt.errors.Add(1)
		out["status"] = "degraded"
	default:
		rt.errors.Add(1)
		out["status"] = "unavailable"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}
