// Package ms implements the Model Server of the paper's Figure 5: the
// online component that receives a transfer request from the Alipay
// server, fetches the latest basic features and user node embeddings from
// Ali-HBase, scores the transaction in milliseconds, and alerts the Alipay
// server to interrupt the transfer when the predicted fraud probability
// crosses the threshold.
//
// The serving surface is the v1 engine: a functional-options constructor
// (New), context-aware single scoring (Score), batch scoring with
// per-batch user-fetch deduplication over a worker pool (ScoreBatch), a
// bounded log-bucketed latency histogram, a typed error model (errors.go),
// and a versioned HTTP API (http.go).
package ms

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/feature"
	"titant/internal/hbase"
	"titant/internal/ms/usercache"
	"titant/internal/rng"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// Alert is the callback invoked for transactions predicted fraudulent; in
// production it tells the Alipay server to interrupt the transfer and
// notify the transferor.
type Alert func(t *txn.Transaction, score float64)

// userCache is the engine's read-through cache instantiation: decoded
// user fragments keyed by user ID, so a hit skips the store and every
// codec entirely.
type userCache = usercache.Cache[txn.UserID, userParts]

// userHash mixes a user ID onto cache shards.
func userHash(u txn.UserID) uint64 {
	return rng.Mix64(uint64(uint32(u)))
}

// Server scores transactions against the current model bundle. Safe for
// concurrent use; the bundle can be hot-swapped between requests.
type Server struct {
	table *hbase.Table
	cache *userCache // nil: every fetch reads the store

	// peers is the shard ring this server belongs to when it runs inside
	// a ShardedEngine (nil: unsharded, every user is local). User-keyed
	// reads and negative-cache invalidations route to the owner shard
	// ShardOf picks, so each user's table rows, cache entries and
	// known-absent markers live on exactly one shard regardless of which
	// shard processes the transaction — the invariant the rebalance
	// bitwise-stability guarantee rests on. Set once by NewSharded before
	// the engine is shared; never mutated afterwards.
	peers []*Server

	mu      sync.RWMutex
	bundle  *Bundle
	citySrc feature.CitySource // city view scoring reads through; rebuilt on swap
	policy  *decision.Policy   // nil: decision endpoints disabled; hot-swapped like the bundle

	// policyConfigured records whether the engine was built WithPolicy:
	// SetPolicy only replaces a configured policy, it cannot enable
	// decisioning on an engine the operator left it off.
	policyConfigured bool

	// Admission gate (see admission.go): per-caller quotas and the
	// inflight bound. nil: every request is admitted.
	adm *admission

	alert        Alert
	workers      int
	strict       bool
	maxBatch     int
	modelToken   string
	ingestToken  string
	stream       StreamAggregates
	streamWarmup int64

	// Decision subsystem (see internal/decision and decide.go).
	velocity     decision.VelocitySource // stream store's rule-predicate surface, when it has one
	driftCfg     *decision.DriftConfig   // nil: drift monitoring disabled
	drift        atomic.Pointer[decision.Monitor]
	shadowBundle *Bundle // challenger configured by WithShadow
	shadowQueue  int
	shadow       *shadowRunner

	// Durability plane (see eventlog.go). elogMu serializes every
	// (append, apply) pair so the log order is the apply order — the
	// invariant bitwise replay recovery rests on.
	elogDir       string
	elogOpts      []eventlog.Option
	elog          *eventlog.Log
	elogMu        sync.Mutex
	elogBuf       []byte // payload scratch, under elogMu
	elogSnapEvery uint64
	elogSnapBase  uint64 // log offset of the newest snapshot, under elogMu
	elogReplayed  atomic.Int64
	elogErrs      atomic.Int64 // append failures on paths with no caller to return to

	hist       *telemetry.Histogram
	ingestHist *telemetry.Histogram // per-endpoint: POST /v1/ingest[/batch] request latency
	decideHist *telemetry.Histogram // per-endpoint: POST /v1/decide[/batch] request latency
	scored     atomic.Int64
	alerted    atomic.Int64
	actions    [decision.NumActions]atomic.Int64
	ruleHits   atomic.Int64

	// Observability plane (see internal/telemetry): per-stage span
	// aggregation with slow-exemplar rings, one track per scoring
	// endpoint (held as direct pointers so the hot path pays no map
	// lookup), and the trace-ID minter the HTTP layer adopts-or-mints
	// with. traceSeed keeps minted IDs deterministic per engine;
	// NewSharded diversifies it per shard.
	traceSeed      uint64
	noTrace        bool
	minter         *telemetry.Minter
	tel            *telemetry.Tracker
	telScore       *telemetry.EndpointTrack
	telScoreBatch  *telemetry.EndpointTrack
	telDecide      *telemetry.EndpointTrack
	telDecideBatch *telemetry.EndpointTrack
}

// New builds the v1 scoring engine over a feature table.
func New(table *hbase.Table, bundle *Bundle, opts ...Option) (*Server, error) {
	if table == nil {
		return nil, errors.New("ms: nil feature table")
	}
	if bundle == nil {
		return nil, fmt.Errorf("%w: nil bundle", ErrBundleInvalid)
	}
	if err := bundle.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		table:        table,
		bundle:       bundle,
		workers:      defaultWorkers(),
		maxBatch:     DefaultMaxBatch,
		streamWarmup: DefaultStreamWarmup,
	}
	for _, o := range opts {
		o(s)
	}
	if s.hist == nil {
		s.hist = telemetry.NewHistogram(nil)
	}
	s.ingestHist = telemetry.NewHistogram(nil)
	s.decideHist = telemetry.NewHistogram(nil)
	s.minter = telemetry.NewMinter(s.traceSeed)
	endpoints := []string{"score", "score_batch", "decide", "decide_batch"}
	if s.noTrace {
		// An empty tracker keeps /metrics and /v1/debug/trace functional
		// while every Endpoint lookup below comes back nil — the seam
		// traceObserve treats as "tracing off".
		endpoints = nil
	}
	s.tel = telemetry.NewTracker(endpoints, 0)
	s.telScore = s.tel.Endpoint("score")
	s.telScoreBatch = s.tel.Endpoint("score_batch")
	s.telDecide = s.tel.Endpoint("decide")
	s.telDecideBatch = s.tel.Endpoint("decide_batch")
	s.citySrc = s.cityView(bundle)
	if s.policy != nil {
		if err := s.policy.Validate(); err != nil {
			return nil, err
		}
		s.policyConfigured = true
	}
	// Rule predicates read in-window velocity when the configured stream
	// store can serve it allocation-free; other StreamAggregates
	// implementations simply leave velocity rules inert.
	if v, ok := s.stream.(decision.VelocitySource); ok {
		s.velocity = v
	}
	if s.driftCfg != nil {
		s.drift.Store(decision.NewMonitor(*s.driftCfg, driftSeriesNames(bundle)))
	}
	if s.shadowBundle != nil {
		sr, err := newShadowRunner(s, s.shadowBundle, s.shadowQueue)
		if err != nil {
			return nil, err
		}
		s.shadow = sr
	}
	if s.elogDir != "" {
		// Recovery runs last so every subsystem the snapshot and replay
		// rebuild already exists. The engine is not shared yet, so replay
		// applies state without elogMu.
		if err := s.openEventLog(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// driftSeriesNames lists the score series the drift monitor tracks for a
// bundle: the combined score first, then every ensemble member in order
// (a v1 single-model bundle's only score is the combined one).
func driftSeriesNames(b *Bundle) []string {
	names := []string{"combined"}
	if ens, err := b.runtime(); err == nil && !ens.single {
		names = append(names, ens.names...)
	}
	return names
}

// Close releases the engine's background resources: the shadow scoring
// worker, and the event log (flushed and fsynced, so a clean shutdown
// loses nothing). Safe to call on an engine without either, and more
// than once. Scoring after Close still works; shadow comparisons stop
// and logged ingest fails.
func (s *Server) Close() {
	if s.shadow != nil {
		s.shadow.close()
	}
	if s.elog != nil {
		_ = s.elog.Close()
	}
}

// cityView builds the per-city statistics source scoring reads through:
// the live streaming window (gated by the warm-up threshold, with
// frozen-table fallback for unseen cities) when streaming is configured,
// the bundle's frozen table otherwise. Built once per bundle so the hot
// path pays no allocation.
func (s *Server) cityView(b *Bundle) feature.CitySource {
	if s.stream == nil {
		return &b.City
	}
	return &liveCity{live: s.stream, frozen: &b.City, warmup: s.streamWarmup}
}

// liveCity reads per-city statistics from the streaming window, guarded
// two ways against thin data. First, a global warm-up gate: until the
// window has absorbed `warmup` transactions, every city serves the
// bundle's frozen table — a cold daemon scores exactly like the T+1 path,
// and no city computes a traffic share over a near-empty denominator
// (one lone transaction would otherwise read share=1.0 against a frozen
// ~1/cities). Second, past warm-up, a per-city fallback: a city with no
// in-window traffic serves its frozen value rather than the bare
// smoothing prior.
type liveCity struct {
	live   StreamAggregates
	frozen *feature.CityTable
	warmup int64
}

// Lookup satisfies feature.CitySource.
func (lc *liveCity) Lookup(c uint16) (fraud, share float64) {
	if lc.live.Ingested() < lc.warmup {
		return lc.frozen.Lookup(c)
	}
	f, sh, n := lc.live.LookupCity(c)
	if n == 0 {
		return lc.frozen.Lookup(c)
	}
	return f, sh
}

// SetBundle hot-swaps the model (the paper's periodic model-file update).
// The user cache, when present, is purged: a bundle swap typically lands
// right after an upload wave has re-published every user at the new
// version, so anything cached may be a T-1 fragment.
func (s *Server) SetBundle(b *Bundle) error {
	if b == nil {
		return fmt.Errorf("%w: nil bundle", ErrBundleInvalid)
	}
	if err := b.validate(); err != nil {
		return err
	}
	// A swap starts a new score distribution: rebuild the drift monitor
	// so the baseline re-freezes on the new bundle's first traffic, and
	// start a new shadow comparison epoch — agreement with a departed
	// champion says nothing about the new one. All replaced under the
	// same lock scoringView reads, so an in-flight pass observes a
	// consistent (bundle, monitor, epoch) triple.
	s.mu.Lock()
	s.bundle = b
	s.citySrc = s.cityView(b)
	// The reset marker and the resets themselves share one elogMu
	// critical section: no score or shadow event can be logged between
	// the marker and the state it resets, so replay resets at exactly
	// the point the live process did. (Lock order is s.mu then elogMu;
	// the logged hot paths take elogMu alone.)
	s.elogMu.Lock()
	if s.elog != nil {
		s.logResetLocked(b.Version)
	}
	if s.driftCfg != nil {
		s.drift.Store(decision.NewMonitor(*s.driftCfg, driftSeriesNames(b)))
	}
	if s.shadow != nil {
		s.shadow.championSwapped()
	}
	s.elogMu.Unlock()
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.Purge()
	}
	return nil
}

// InvalidateUser drops one user's cached fragments (a no-op without a
// cache). Uploaders wire this into Uploader.Invalidate so live feature
// re-publication is visible to the very next score.
func (s *Server) InvalidateUser(u txn.UserID) {
	if s.cache != nil {
		s.cache.Invalidate(u)
	}
}

// UserCacheEnabled reports whether the engine was built WithUserCache.
func (s *Server) UserCacheEnabled() bool { return s.cache != nil }

// UserCacheStats snapshots the cache counters (zero without a cache).
func (s *Server) UserCacheStats() usercache.Stats {
	if s.cache == nil {
		return usercache.Stats{}
	}
	return s.cache.Stats()
}

func (s *Server) currentBundle() *Bundle {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bundle
}

// scoringView reads the bundle, its city source, the drift monitor and
// the shadow epoch in one lock round: SetBundle replaces all of them
// under the same lock, so a scoring pass that began under the old
// bundle cannot feed the old model's scores into the new monitor's
// baseline or stamp old-champion comparisons into the new shadow epoch.
func (s *Server) scoringView() (*Bundle, feature.CitySource, *decision.Monitor, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var epoch int64
	if s.shadow != nil {
		epoch = s.shadow.epoch.Load()
	}
	return s.bundle, s.citySrc, s.drift.Load(), epoch
}

// BundleVersion returns the active bundle's version string.
func (s *Server) BundleVersion() string {
	return s.currentBundle().Version
}

// MemberInfo describes one ensemble member (GET /v1/models).
type MemberInfo struct {
	Name      string  `json:"name"`
	Weight    float64 `json:"weight"`
	Threshold float64 `json:"threshold"`
}

// ModelInfo describes the active bundle (GET /v1/models). Combiner and
// Members are present only for v2 ensemble bundles, so v1 responses are
// byte-compatible with older clients.
type ModelInfo struct {
	Version      string       `json:"version"`
	Threshold    float64      `json:"threshold"`
	EmbeddingDim int          `json:"embedding_dim"`
	Combiner     string       `json:"combiner,omitempty"`
	Members      []MemberInfo `json:"members,omitempty"`
}

// ModelInfo returns the active bundle's metadata.
func (s *Server) ModelInfo() ModelInfo {
	b := s.currentBundle()
	info := ModelInfo{Version: b.Version, Threshold: b.Threshold, EmbeddingDim: b.EmbeddingDim}
	if len(b.Members) > 0 {
		info.Combiner = b.Combine.String()
		info.Members = make([]MemberInfo, len(b.Members))
		for i := range b.Members {
			m := &b.Members[i]
			info.Members[i] = MemberInfo{Name: m.Name, Weight: m.weight(), Threshold: m.Threshold}
		}
	}
	return info
}

// MemberScore is one ensemble member's contribution to a verdict, exposed
// for explainability: which detector fired, and how strongly.
type MemberScore struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// Verdict is a scoring outcome. Members carries the per-member scores of
// a v2 ensemble bundle; it is omitted for v1 single-model bundles, whose
// wire format is unchanged.
type Verdict struct {
	TxnID   txn.TxnID     `json:"txn_id"`
	Score   float64       `json:"score"`
	Fraud   bool          `json:"fraud"`
	Version string        `json:"model_version"`
	Latency time.Duration `json:"latency_ns"`
	Members []MemberScore `json:"members,omitempty"`
}

// scoredBatch exposes one scoring pass's scratch to a visit callback
// while it is still alive: the pooled combined and per-member score
// buffers are reclaimed when the callback returns, so callers must copy
// anything they keep. It is how the decision path reads the ensemble
// breakdown without a second scoring pass — Score, ScoreBatch, Decide
// and DecideBatch all run through the same core, which is what makes
// their scores (and therefore their actions) bitwise identical.
type scoredBatch struct {
	bundle       *Bundle
	ens          *ensemble
	combined     []float64     // one combined score per transaction
	memberScores [][]float64   // [member][row]; nil for v1 single-model bundles
	perItem      time.Duration // each item's amortised share of the pass
	shadowEpoch  int64         // shadow epoch these scores belong to
}

// runOne is the single-transaction scoring core: fetch both users'
// fragments, assemble the feature vector into a pooled one-row matrix,
// run the ensemble, observe drift, then hand the scratch to visit.
// Cancellation and deadlines on ctx are honoured; a cancelled context
// returns promptly with ctx.Err() and visit never runs (so alerts and
// decisions are never derived from an abandoned request).
//
// spans receives the fetch/assemble/score stage timings — a stack
// buffer owned by the caller, so stage tracing costs a few monotonic
// clock reads and no allocation.
func (s *Server) runOne(ctx context.Context, t *txn.Transaction, spans *telemetry.Spans, visit func(*scoredBatch) error) error {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return err
	}
	bundle, city, mon, epoch := s.scoringView()
	ens, err := bundle.runtime()
	if err != nil {
		return err
	}
	from, to, err := s.fetchPair(t.From, t.To)
	if err != nil {
		return err
	}
	asmStart := time.Now()
	spans[telemetry.StageFetch] = asmStart.Sub(start)
	m := getMatrix(1, feature.NumBasic+2*bundle.EmbeddingDim)
	defer putMatrix(m)
	if err := assembleRow(t, &from, &to, bundle, city, m.Row(0)); err != nil {
		return err
	}
	scoreStart := time.Now()
	spans[telemetry.StageAssemble] = scoreStart.Sub(asmStart)
	var combined [1]float64
	var memberScores [][]float64
	if !ens.single {
		memberScores = getMemberScores(len(ens.clfs), 1)
		defer putMemberScores(memberScores)
	}
	if err := ens.score(combined[:], memberScores, m); err != nil {
		return err
	}
	// Re-check after all the work so a deadline that expired mid-fetch or
	// mid-score upholds the no-alert guarantee.
	if err := ctx.Err(); err != nil {
		return err
	}
	s.recordScores(mon, combined[:], memberScores)
	spans[telemetry.StageScore] = time.Since(scoreStart)
	return visit(&scoredBatch{
		bundle: bundle, ens: ens,
		combined: combined[:], memberScores: memberScores,
		perItem: time.Since(start), shadowEpoch: epoch,
	})
}

// Score runs the full online path for one transaction: fetch both users'
// fragments from HBase, assemble the feature vector, run the ensemble,
// fire the alert if the combined score crosses the threshold. It is the
// batch path at batch size one — a pooled one-row matrix through the
// same ensemble core — so single and batch scoring cannot drift.
func (s *Server) Score(ctx context.Context, t *txn.Transaction) (Verdict, error) {
	start := time.Now()
	var spans telemetry.Spans
	release, err := s.Admit(ctx, 1)
	if err != nil {
		return Verdict{}, err
	}
	defer release()
	spans[telemetry.StageAdmit] = time.Since(start)
	var v Verdict
	var epoch int64
	if err := s.runOne(ctx, t, &spans, func(sb *scoredBatch) error {
		v = verdictOf(t, sb.combined[0], sb.memberScores, 0, sb.bundle, sb.ens)
		v.Latency = sb.perItem
		epoch = sb.shadowEpoch
		return nil
	}); err != nil {
		return Verdict{}, err
	}
	shadowStart := time.Now()
	s.observe(t, &v, epoch)
	spans[telemetry.StageShadow] = time.Since(shadowStart)
	s.traceObserve(ctx, s.telScore, time.Since(start), &spans)
	return v, nil
}

// ScoreBatch scores a batch in input order through the batch-native
// runtime: it deduplicates the batch's user set and fetches each distinct
// user once across the worker pool, assembles the whole batch into one
// pooled feature matrix over the same pool, then runs every ensemble
// member's vectorised batch path (compiled GBDT, fused LR, …) over the
// matrix in a single pass before combining. The first per-item error
// aborts the batch. Verdict latencies are each item's amortised share of
// the batch's fetch, assembly and model phases, so they remain comparable
// with Score's latencies in the shared histogram; the batch's end-to-end
// time is the caller's to observe.
func (s *Server) ScoreBatch(ctx context.Context, txns []txn.Transaction) ([]Verdict, error) {
	if len(txns) == 0 {
		return nil, nil
	}
	start := time.Now()
	var spans telemetry.Spans
	release, err := s.Admit(ctx, len(txns))
	if err != nil {
		return nil, err
	}
	defer release()
	spans[telemetry.StageAdmit] = time.Since(start)
	var verdicts []Verdict
	var epoch int64
	if err := s.runBatch(ctx, txns, &spans, func(sb *scoredBatch) error {
		verdicts = make([]Verdict, len(txns))
		for i := range txns {
			verdicts[i] = verdictOf(&txns[i], sb.combined[i], sb.memberScores, i, sb.bundle, sb.ens)
			verdicts[i].Latency = sb.perItem
		}
		epoch = sb.shadowEpoch
		return nil
	}); err != nil {
		return nil, err
	}
	shadowStart := time.Now()
	for i := range verdicts {
		s.observe(&txns[i], &verdicts[i], epoch)
	}
	spans[telemetry.StageShadow] = time.Since(shadowStart)
	s.traceObserve(ctx, s.telScoreBatch, time.Since(start), &spans)
	return verdicts, nil
}

// runBatch is the batch scoring core shared by ScoreBatch and
// DecideBatch: dedup-fetch, pooled assembly, one vectorised ensemble
// pass, drift observation, then the visit callback over the live
// scratch (see scoredBatch). spans receives the fetch/assemble/score
// stage timings — a caller-owned stack buffer, so tracing adds clock
// reads, not allocations.
func (s *Server) runBatch(ctx context.Context, txns []txn.Transaction, spans *telemetry.Spans, visit func(*scoredBatch) error) error {
	if s.maxBatch > 0 && len(txns) > s.maxBatch {
		return batchTooLarge(len(txns), s.maxBatch)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	bundle, city, mon, epoch := s.scoringView()
	ens, err := bundle.runtime()
	if err != nil {
		return err
	}

	// Phase 1: fetch each distinct user in the batch exactly once — cache
	// hits resolved by a shard probe, misses chunked into multi-get rounds
	// that amortise one store lock acquisition over a whole chunk.
	fetchStart := time.Now()
	index := make(map[txn.UserID]int, 2*len(txns))
	ids := make([]txn.UserID, 0, 2*len(txns))
	add := func(u txn.UserID) {
		if _, ok := index[u]; !ok {
			index[u] = len(ids)
			ids = append(ids, u)
		}
	}
	for i := range txns {
		add(txns[i].From)
		add(txns[i].To)
	}
	parts := make([]userParts, len(ids))
	found := make([]bool, len(ids))
	if err := s.fetchUsers(ctx, ids, parts, found); err != nil {
		return err
	}
	if s.strict {
		for i, ok := range found {
			if !ok {
				return fmt.Errorf("%w: user %d", ErrUserNotFound, ids[i])
			}
		}
	}
	asmStart := time.Now()
	spans[telemetry.StageFetch] = asmStart.Sub(fetchStart)

	// Phase 2: assemble the batch's feature matrix over the pool.
	m := getMatrix(len(txns), feature.NumBasic+2*bundle.EmbeddingDim)
	defer putMatrix(m)
	if err := s.runPool(ctx, len(txns), func(i int) error {
		t := &txns[i]
		if err := assembleRow(t, &parts[index[t.From]], &parts[index[t.To]], bundle, city, m.Row(i)); err != nil {
			return fmt.Errorf("ms: txn %d: %w", t.ID, err)
		}
		return nil
	}); err != nil {
		return err
	}

	scoreStart := time.Now()
	spans[telemetry.StageAssemble] = scoreStart.Sub(asmStart)

	// Phase 3: one vectorised ensemble pass over the whole matrix.
	combined := getVec(len(txns))
	defer putVec(combined)
	var memberScores [][]float64
	if !ens.single {
		memberScores = getMemberScores(len(ens.clfs), len(txns))
		defer putMemberScores(memberScores)
	}
	if err := ens.score(combined, memberScores, m); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.recordScores(mon, combined, memberScores)
	spans[telemetry.StageScore] = time.Since(scoreStart)
	return visit(&scoredBatch{
		bundle: bundle, ens: ens,
		combined: combined, memberScores: memberScores,
		perItem: time.Since(fetchStart) / time.Duration(len(txns)), shadowEpoch: epoch,
	})
}

// traceObserve folds one request's spans into the endpoint's stage
// histograms and exemplar ring. A nil track means tracing is off for
// this endpoint; a request without a context trace ID is still
// aggregated, just with a zero exemplar ID.
func (s *Server) traceObserve(ctx context.Context, et *telemetry.EndpointTrack, total time.Duration, spans *telemetry.Spans) {
	if et == nil {
		return
	}
	id, _ := telemetry.TraceFrom(ctx)
	et.Observe(id, total, spans)
}

// observeDrift feeds one scoring pass's scores into mon (a no-op when
// nil). mon is the monitor captured with the bundle in the same
// scoringView lock round, so the scores always land in the monitor
// built for the bundle that produced them; the NumSeries check is a
// second line of defence for hand-assembled states.
func observeDrift(mon *decision.Monitor, combined []float64, memberScores [][]float64) {
	if mon == nil {
		return
	}
	withMembers := memberScores != nil && mon.NumSeries() == 1+len(memberScores)
	for i := range combined {
		mon.ObserveSeries(0, combined[i])
		if withMembers {
			for k := range memberScores {
				mon.ObserveSeries(k+1, memberScores[k][i])
			}
		}
	}
}

// assembleRow writes one transaction's full feature vector (52 basic
// features plus both endpoints' embeddings) into row, a matrix row of
// width NumBasic+2*EmbeddingDim. city supplies the per-city statistics —
// frozen or live depending on the engine's configuration.
func assembleRow(t *txn.Transaction, from, to *userParts, bundle *Bundle, city feature.CitySource, row []float64) error {
	dim := bundle.EmbeddingDim
	feature.BasicFromParts(t, &from.user, &to.user, city, row[:feature.NumBasic])
	if dim > 0 {
		if err := copyEmb(row[feature.NumBasic:feature.NumBasic+dim], from.emb, t.From); err != nil {
			return err
		}
		if err := copyEmb(row[feature.NumBasic+dim:], to.emb, t.To); err != nil {
			return err
		}
	}
	return nil
}

// verdictOf builds the verdict for row i: combined score against the
// bundle threshold, plus the per-member breakdown for ensemble bundles
// (memberScores is nil for v1 single-model bundles).
func verdictOf(t *txn.Transaction, score float64, memberScores [][]float64, i int, bundle *Bundle, ens *ensemble) Verdict {
	v := Verdict{
		TxnID:   t.ID,
		Score:   score,
		Fraud:   score >= bundle.Threshold,
		Version: bundle.Version,
	}
	if memberScores != nil {
		members := make([]MemberScore, len(ens.names))
		for k := range ens.names {
			members[k] = MemberScore{Name: ens.names[k], Score: memberScores[k][i]}
		}
		v.Members = members
	}
	return v
}

// copyEmb widens a stored float32 embedding into the feature vector. An
// absent embedding (cold-start user) leaves the zero vector; any other
// length disagreement is data corruption and refuses to score.
func copyEmb(dst []float64, src []float32, u txn.UserID) error {
	if len(src) == 0 {
		return nil
	}
	if len(src) != len(dst) {
		return fmt.Errorf("%w: user %d has %d dims, model wants %d",
			ErrDimensionMismatch, u, len(src), len(dst))
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
	return nil
}

// ownerOf resolves the shard that owns a user's state: the peer the
// ring's consistent hash picks when sharded, the server itself otherwise.
func (s *Server) ownerOf(u txn.UserID) *Server {
	if s.peers == nil {
		return s
	}
	return s.peers[ShardOf(u, len(s.peers))]
}

// fetchOne reads one user's fragments, applying the strict-users policy.
// With a cache the read goes through GetOrLoad: hits return the decoded
// fragments with no store access, concurrent misses for the same user
// collapse to a single store read, and unknown users are remembered as
// negative entries so cold-start traffic stops costing point reads.
// Sharded, the read goes to the owner shard's table and cache — a
// transaction's receiver may be another shard's user.
func (s *Server) fetchOne(u txn.UserID) (userParts, error) {
	o := s.ownerOf(u)
	var (
		parts userParts
		found bool
		err   error
	)
	if o.cache != nil {
		parts, found, err = o.cache.GetOrLoad(u, func() (userParts, bool, error) {
			var p userParts
			ok, lerr := fetchUserInto(o.table, u, &p)
			return p, ok, lerr
		})
	} else {
		found, err = fetchUserInto(o.table, u, &parts)
	}
	if err != nil {
		return parts, fmt.Errorf("ms: fetch user %d: %w", u, err)
	}
	if !found && s.strict {
		return parts, fmt.Errorf("%w: user %d", ErrUserNotFound, u)
	}
	return parts, nil
}

// fetchPair reads the sender's then the receiver's fragments inline.
// Before the point-read engine this parallelised the two reads with a
// goroutine; a point read now costs well under a spawn-and-channel round
// trip (and with a cache, a warm read is a single shard probe), so the
// sequential pair is the faster path in every configuration.
func (s *Server) fetchPair(from, to txn.UserID) (userParts, userParts, error) {
	fp, err := s.fetchOne(from)
	if err != nil {
		return fp, userParts{}, err
	}
	tp, err := s.fetchOne(to)
	return fp, tp, err
}

// fetchChunk bounds one multi-get round: large enough to amortise the
// store's lock acquisition to noise, small enough that a round never
// holds the read lock long and chunks spread across the worker pool.
const fetchChunk = 256

// fetchUsers resolves a deduped user set into parts/found (both indexed
// like ids), routing each user to its owner shard. Unsharded (or when
// every id is local) it is one local pass; sharded, ids group by owner
// and each group resolves against that shard's cache and table. Groups
// run sequentially — each group's miss rounds already fan out over the
// owner's worker pool, and a scoring sub-batch rarely spans more than a
// handful of owners.
func (s *Server) fetchUsers(ctx context.Context, ids []txn.UserID, parts []userParts, found []bool) error {
	if s.peers == nil {
		return s.fetchUsersLocal(ctx, ids, parts, found)
	}
	n := len(s.peers)
	groups := make([][]int, n)
	for i, u := range ids {
		si := ShardOf(u, n)
		groups[si] = append(groups[si], i)
	}
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		peer := s.peers[si]
		if len(idxs) == len(ids) {
			return peer.fetchUsersLocal(ctx, ids, parts, found)
		}
		gids := make([]txn.UserID, len(idxs))
		for k, i := range idxs {
			gids[k] = ids[i]
		}
		gparts := make([]userParts, len(idxs))
		gfound := make([]bool, len(idxs))
		if err := peer.fetchUsersLocal(ctx, gids, gparts, gfound); err != nil {
			return err
		}
		for k, i := range idxs {
			parts[i] = gparts[k]
			found[i] = gfound[k]
		}
	}
	return nil
}

// fetchUsersLocal resolves a user set against this server's own cache
// and table (the pre-sharding fetchUsers). Cached entries are peeked
// first; the misses batch into chunked multi-get rounds fanned out over
// the worker pool, and — with a cache — the loaded entries are inserted
// for subsequent batches, each guarded by its shard generation captured
// before the store read so a concurrent upload's invalidation wins over
// the stale read.
func (s *Server) fetchUsersLocal(ctx context.Context, ids []txn.UserID, parts []userParts, found []bool) error {
	if s.cache == nil {
		rows := make([]string, len(ids))
		for i, u := range ids {
			rows[i] = RowKey(u)
		}
		chunks := (len(ids) + fetchChunk - 1) / fetchChunk
		return s.runPool(ctx, chunks, func(ci int) error {
			lo := ci * fetchChunk
			hi := min(lo+fetchChunk, len(ids))
			return fetchUsersInto(s.table, ids[lo:hi], rows[lo:hi], parts[lo:hi], found[lo:hi])
		})
	}
	missIdx := make([]int, 0, len(ids))
	missGens := make([]uint64, 0, len(ids))
	for i, u := range ids {
		// One lock round per key: the hit, or the miss plus the shard
		// generation guarding the upcoming store read.
		v, ok, present, gen := s.cache.PeekGen(u)
		if present {
			parts[i] = v
			found[i] = ok
		} else {
			missIdx = append(missIdx, i)
			missGens = append(missGens, gen)
		}
	}
	if len(missIdx) == 0 {
		return nil
	}
	missIDs := make([]txn.UserID, len(missIdx))
	rows := make([]string, len(missIdx))
	missParts := make([]userParts, len(missIdx))
	missFound := make([]bool, len(missIdx))
	for k, i := range missIdx {
		missIDs[k] = ids[i]
		rows[k] = RowKey(ids[i])
	}
	chunks := (len(missIdx) + fetchChunk - 1) / fetchChunk
	if err := s.runPool(ctx, chunks, func(ci int) error {
		lo := ci * fetchChunk
		hi := min(lo+fetchChunk, len(missIdx))
		return fetchUsersInto(s.table, missIDs[lo:hi], rows[lo:hi], missParts[lo:hi], missFound[lo:hi])
	}); err != nil {
		return err
	}
	for k, i := range missIdx {
		parts[i] = missParts[k]
		found[i] = missFound[k]
		s.cache.Add(missIDs[k], missGens[k], missParts[k], missFound[k])
	}
	return nil
}

// runPool runs fn(0..n-1) across the engine's worker pool, stopping at
// the first error or context cancellation.
func (s *Server) runPool(ctx context.Context, n int, fn func(int) error) error {
	workers := s.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		stop.Store(true)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				select {
				case <-done:
					fail(ctx.Err())
					return
				default:
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// observe records one verdict's counters and latency, firing the alert
// for fraudulent transactions and handing the transaction to the shadow
// challenger (a non-blocking enqueue that sheds on overflow). epoch is
// the shadow epoch the verdict was scored under (scoringView), so a
// champion swap mid-batch marks the batch's comparisons stale instead
// of polluting the new champion's meter.
func (s *Server) observe(t *txn.Transaction, v *Verdict, epoch int64) {
	s.scored.Add(1)
	s.hist.Record(v.Latency)
	if v.Fraud {
		s.alerted.Add(1)
		if s.alert != nil {
			s.alert(t, v.Score)
		}
	}
	if s.shadow != nil {
		s.shadow.enqueue(t, v, epoch)
	}
}

// Ingest feeds one observed transaction into the live aggregate window
// (POST /v1/ingest). Callers send both scored transfers that completed
// and delayed fraud reports (re-sent with the Fraud flag set), so the
// window's city fraud rates track reality as labels arrive. Returns
// ErrStreamDisabled on an engine built without WithStreamAggregates.
//
// Ingest also clears any *negative* user-cache entries for the two
// endpoints: live traffic cannot stale stored fragments (those only
// change through uploads, which invalidate exactly), but a transaction
// naming a user the store has never seen is a signal that user may be
// published shortly, so the known-absent marker must not pin them as
// unknown until eviction.
func (s *Server) Ingest(t *txn.Transaction) error {
	if s.stream == nil {
		return ErrStreamDisabled
	}
	if s.elog != nil {
		s.elogMu.Lock()
		defer s.elogMu.Unlock()
		if err := s.ingestLocked(t); err != nil {
			return err
		}
		return s.maybeSnapshotLocked()
	}
	s.stream.Ingest(t)
	s.dropNegative(t)
	return nil
}

// dropNegative clears cold-start cache markers for a transaction's
// endpoints, each on its owner shard's cache (no-op without caches): the
// receiver's marker may live on another shard than the one ingesting.
func (s *Server) dropNegative(t *txn.Transaction) {
	s.ownerOf(t.From).dropNegativeLocal(t.From)
	s.ownerOf(t.To).dropNegativeLocal(t.To)
}

func (s *Server) dropNegativeLocal(u txn.UserID) {
	if s.cache != nil {
		s.cache.InvalidateNegative(u)
	}
}

// IngestBatch ingests a slice in order, subject to the engine's batch
// limit. It is all-or-nothing only on the pre-checks; ingestion itself
// cannot fail.
func (s *Server) IngestBatch(txns []txn.Transaction) error {
	if s.stream == nil {
		return ErrStreamDisabled
	}
	if s.maxBatch > 0 && len(txns) > s.maxBatch {
		return batchTooLarge(len(txns), s.maxBatch)
	}
	if s.elog != nil {
		s.elogMu.Lock()
		defer s.elogMu.Unlock()
		for i := range txns {
			if err := s.ingestLocked(&txns[i]); err != nil {
				return err
			}
		}
		return s.maybeSnapshotLocked()
	}
	for i := range txns {
		s.stream.Ingest(&txns[i])
		s.dropNegative(&txns[i])
	}
	return nil
}

// StreamEnabled reports whether the engine maintains a live aggregate
// window.
func (s *Server) StreamEnabled() bool { return s.stream != nil }

// Ingested returns the live window's accepted-transaction count (0 when
// streaming is disabled).
func (s *Server) Ingested() int64 {
	if s.stream == nil {
		return 0
	}
	return s.stream.Ingested()
}

// LatencyStats summarises serving latency.
type LatencyStats struct {
	Count   int64
	Alerted int64
	P50     time.Duration
	P99     time.Duration
	Max     time.Duration
}

// Latency returns percentile statistics over all scored requests. The
// read is O(buckets): percentiles come from the bounded histogram, not a
// sample log.
func (s *Server) Latency() LatencyStats {
	counts, total := s.hist.Snapshot()
	max := s.hist.Max()
	return LatencyStats{
		Count:   s.scored.Load(),
		Alerted: s.alerted.Load(),
		P50:     telemetry.Quantile(s.hist.Bounds(), counts, total, max, 0.50),
		P99:     telemetry.Quantile(s.hist.Bounds(), counts, total, max, 0.99),
		Max:     max,
	}
}
