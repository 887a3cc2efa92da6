package ms

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/hbase"
	"titant/internal/ms/usercache"
	"titant/internal/rng"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// ShardOf maps a user onto one of n shards with Lamping–Veach jump
// consistent hashing over the same Mix64 the user cache and the stream
// store stripe by. Jump hashing is what makes resharding cheap *and*
// verdict-stable: going from n to m shards moves only ~|n-m|/max(n,m) of
// the keyspace, and because every user's state lives wholly on its owner
// shard (see Server.ownerOf), a moved user scores from the same rows,
// cache semantics and shared stream window on its new owner — bitwise
// the same verdict.
func ShardOf(u txn.UserID, n int) int {
	if n <= 1 {
		return 0
	}
	key := rng.Mix64(uint64(uint32(u)))
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ShardedEngine is N in-process engine shards behind one serving
// surface. Users partition by ShardOf across per-shard feature tables
// and user caches; every shard shares one stream-aggregate store (its
// internals are already lock-striped by the same user hash, and city
// statistics are global by nature — sharing it is what keeps verdicts
// independent of the shard count). Score/Ingest route to the owner
// shard; ScoreBatch/DecideBatch scatter sub-batches across shards
// concurrently and gather verdicts back in input order; bundle and
// policy hot-swaps apply to all shards atomically with respect to
// scoring (swapMu). Admission control runs once at this level — the
// per-shard gates are disarmed so quotas don't multiply by N.
type ShardedEngine struct {
	shards []*Server

	// swapMu orders hot-swaps against scatter/gather: batches hold the
	// read side, SetBundle/SetPolicy the write side, so no batch ever
	// spans a swap with some sub-batches on the old bundle and some on
	// the new. Single-row calls delegate to one shard and need no fence —
	// they cannot straddle shards.
	swapMu sync.RWMutex

	adm      *admission // stolen from shard 0; shard gates are nil'd
	maxBatch int

	modelToken  string
	ingestToken string

	ingestHist *telemetry.Histogram // POST /v1/ingest[/batch] request latency
	decideHist *telemetry.Histogram // POST /v1/decide[/batch] request latency
	minter     *telemetry.Minter    // fleet-level trace minting (HTTP middleware)
}

// NewSharded builds a horizontally sharded engine: one Server per table,
// all from the same bundle and options, ring-linked so user-keyed reads
// route to their owner shard. len(tables) fixes the shard count; every
// table should carry (at least) the users ShardOf assigns to its index —
// NewShardedUploader writes a deploy wave that way.
//
// WithEventLog is rejected: each shard's snapshot would capture — and a
// restart would restore — the *shared* stream store, clobbering sibling
// shards' replay. Durability composes per shard *server* instead: run N
// `titant serve -eventlog` processes behind `titant route`, each logging
// exactly the traffic it owns.
func NewSharded(tables []*hbase.Table, bundle *Bundle, opts ...Option) (*ShardedEngine, error) {
	if len(tables) == 0 {
		return nil, errors.New("ms: NewSharded needs at least one table")
	}
	for i, tab := range tables {
		if tab == nil {
			return nil, fmt.Errorf("ms: nil table for shard %d", i)
		}
	}
	// Pre-flight the options on a probe so misconfigurations fail before
	// any shard (and its background workers) exists.
	var probe Server
	for _, o := range opts {
		o(&probe)
	}
	if probe.elogDir != "" {
		return nil, errors.New("ms: WithEventLog does not compose with in-process shards (each shard snapshot would capture the shared stream store); run one event log per shard server behind `titant route` instead")
	}
	n := len(tables)
	perShardCache := 0
	if probe.cache != nil && n > 1 {
		// Split the configured cache budget across shards instead of
		// multiplying it by N; each shard only ever caches its own users.
		perShardCache = (probe.cache.Stats().Capacity + n - 1) / n
	}
	se := &ShardedEngine{
		ingestHist: telemetry.NewHistogram(nil),
		decideHist: telemetry.NewHistogram(nil),
		minter:     telemetry.NewMinter(probe.traceSeed),
	}
	shards := make([]*Server, n)
	for i, tab := range tables {
		// Diversify each shard's trace seed so co-resident shards never
		// mint colliding IDs from identical streams.
		shardOpts := append(append([]Option{}, opts...), WithTraceSeed(probe.traceSeed+uint64(i)+1))
		srv, err := New(tab, bundle, shardOpts...)
		if err != nil {
			for _, built := range shards[:i] {
				built.Close()
			}
			return nil, fmt.Errorf("ms: shard %d: %w", i, err)
		}
		if i == 0 {
			se.adm = srv.adm
			se.maxBatch = srv.maxBatch
			se.modelToken = srv.modelToken
			se.ingestToken = srv.ingestToken
		}
		// Admission gates once at the sharded front door; a shard with
		// nil adm admits everything (Server.Admit short-circuits).
		srv.adm = nil
		if perShardCache > 0 {
			srv.cache = usercache.New[txn.UserID, userParts](perShardCache, 0, userHash)
		}
		shards[i] = srv
	}
	for _, srv := range shards {
		srv.peers = shards
	}
	se.shards = shards
	return se, nil
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Shard exposes shard i for tests and shard-local wiring (e.g. an
// uploader invalidating the owner's cache). The ring is immutable after
// NewSharded.
func (se *ShardedEngine) Shard(i int) *Server { return se.shards[i] }

// Close closes every shard's background resources.
func (se *ShardedEngine) Close() {
	for _, s := range se.shards {
		s.Close()
	}
}

// owner returns the shard owning a user.
func (se *ShardedEngine) owner(u txn.UserID) *Server {
	return se.shards[ShardOf(u, len(se.shards))]
}

// Admit runs the engine-level admission gate (see Server.Admit).
func (se *ShardedEngine) Admit(ctx context.Context, n int) (func(), error) {
	if se.adm == nil {
		return noRelease, nil
	}
	rel, err := se.adm.admit(CallerFromContext(ctx), n)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// AdmissionEnabled reports whether the engine was built with quotas or
// an inflight bound.
func (se *ShardedEngine) AdmissionEnabled() bool { return se.adm != nil }

// Score scores one transaction on the sender's owner shard. The shard
// fetches the receiver's fragments from *their* owner through the ring,
// so a cross-shard transfer scores identically to a local one.
func (se *ShardedEngine) Score(ctx context.Context, t *txn.Transaction) (Verdict, error) {
	release, err := se.Admit(ctx, 1)
	if err != nil {
		return Verdict{}, err
	}
	defer release()
	return se.owner(t.From).Score(ctx, t)
}

// Decide runs score + policy on the sender's owner shard.
func (se *ShardedEngine) Decide(ctx context.Context, t *txn.Transaction, sc decision.Scenario) (Decision, error) {
	release, err := se.Admit(ctx, 1)
	if err != nil {
		return Decision{}, err
	}
	defer release()
	return se.owner(t.From).Decide(ctx, t, sc)
}

// Ingest feeds one observed transaction into the live window via the
// sender's owner shard (the store is shared; routing keeps the
// per-shard ingest counters and negative-cache invalidations owner-local).
func (se *ShardedEngine) Ingest(t *txn.Transaction) error {
	return se.owner(t.From).Ingest(t)
}

// scatter groups txns by the sender's owner shard, runs run(shard,
// sub-indices) concurrently for every non-empty group, and returns the
// lowest-shard-index error (deterministic under concurrent failures).
// Callers hold swapMu.RLock so a hot-swap cannot land mid-batch.
func (se *ShardedEngine) scatter(txns []txn.Transaction, run func(si int, idxs []int) error) error {
	n := len(se.shards)
	groups := make([][]int, n)
	for i := range txns {
		si := ShardOf(txns[i].From, n)
		groups[si] = append(groups[si], i)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, idxs []int) {
			defer wg.Done()
			errs[si] = run(si, idxs)
		}(si, idxs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// subTxns materialises one shard's sub-batch.
func subTxns(txns []txn.Transaction, idxs []int) []txn.Transaction {
	sub := make([]txn.Transaction, len(idxs))
	for k, i := range idxs {
		sub[k] = txns[i]
	}
	return sub
}

// ScoreBatch scores a batch in input order: rows group by the sender's
// owner shard, the sub-batches score concurrently (each through its
// shard's dedup-fetch + pooled batch core), and the verdicts gather back
// into the callers' positions. Admission admits the whole batch once at
// this level. The first error (lowest shard index) aborts the batch,
// matching the unsharded all-or-nothing contract.
func (se *ShardedEngine) ScoreBatch(ctx context.Context, txns []txn.Transaction) ([]Verdict, error) {
	if len(txns) == 0 {
		return nil, nil
	}
	if se.maxBatch > 0 && len(txns) > se.maxBatch {
		return nil, batchTooLarge(len(txns), se.maxBatch)
	}
	release, err := se.Admit(ctx, len(txns))
	if err != nil {
		return nil, err
	}
	defer release()
	se.swapMu.RLock()
	defer se.swapMu.RUnlock()
	if len(se.shards) == 1 {
		return se.shards[0].ScoreBatch(ctx, txns)
	}
	verdicts := make([]Verdict, len(txns))
	err = se.scatter(txns, func(si int, idxs []int) error {
		vs, err := se.shards[si].ScoreBatch(ctx, subTxns(txns, idxs))
		if err != nil {
			return err
		}
		for k, i := range idxs {
			verdicts[i] = vs[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return verdicts, nil
}

// DecideBatch is ScoreBatch through the decision path: scenarios (nil,
// or len(txns)) slice apart with their transactions and the decisions
// gather back in input order.
func (se *ShardedEngine) DecideBatch(ctx context.Context, txns []txn.Transaction, scenarios []decision.Scenario) ([]Decision, error) {
	if len(txns) == 0 {
		return nil, nil
	}
	if scenarios != nil && len(scenarios) != len(txns) {
		return nil, fmt.Errorf("ms: %d scenarios for %d transactions", len(scenarios), len(txns))
	}
	if se.maxBatch > 0 && len(txns) > se.maxBatch {
		return nil, batchTooLarge(len(txns), se.maxBatch)
	}
	release, err := se.Admit(ctx, len(txns))
	if err != nil {
		return nil, err
	}
	defer release()
	se.swapMu.RLock()
	defer se.swapMu.RUnlock()
	if len(se.shards) == 1 {
		return se.shards[0].DecideBatch(ctx, txns, scenarios)
	}
	decisions := make([]Decision, len(txns))
	err = se.scatter(txns, func(si int, idxs []int) error {
		var subSc []decision.Scenario
		if scenarios != nil {
			subSc = make([]decision.Scenario, len(idxs))
			for k, i := range idxs {
				subSc[k] = scenarios[i]
			}
		}
		ds, err := se.shards[si].DecideBatch(ctx, subTxns(txns, idxs), subSc)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			decisions[i] = ds[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return decisions, nil
}

// IngestBatch routes a batch to the owner shards, sub-batches ingesting
// concurrently. All shards share one stream store whose buckets and
// counters are order-independent, so concurrent sub-batches land the
// same window state as a sequential pass over in-window traffic.
func (se *ShardedEngine) IngestBatch(txns []txn.Transaction) error {
	if se.maxBatch > 0 && len(txns) > se.maxBatch {
		return batchTooLarge(len(txns), se.maxBatch)
	}
	if len(txns) == 0 {
		return se.shards[0].IngestBatch(nil)
	}
	return se.scatter(txns, func(si int, idxs []int) error {
		return se.shards[si].IngestBatch(subTxns(txns, idxs))
	})
}

// SetBundle hot-swaps the model on every shard atomically with respect
// to batch scoring: the swap holds swapMu exclusively, so a scatter
// either sees the old bundle on all shards or the new one on all shards,
// never a mix. The bundle validates once up front; per-shard application
// cannot fail after that, which is what makes the loop all-or-nothing.
func (se *ShardedEngine) SetBundle(b *Bundle) error {
	if b == nil {
		return fmt.Errorf("%w: nil bundle", ErrBundleInvalid)
	}
	if err := b.validate(); err != nil {
		return err
	}
	se.swapMu.Lock()
	defer se.swapMu.Unlock()
	for _, s := range se.shards {
		if err := s.SetBundle(b); err != nil {
			return err
		}
	}
	return nil
}

// SetPolicy hot-swaps the decision policy on every shard atomically
// (same fence as SetBundle). Policy state is uniform across shards —
// they were built from one option set — so the first shard's
// ErrPolicyDisabled refusal aborts before anything changed.
func (se *ShardedEngine) SetPolicy(p *decision.Policy) error {
	if p == nil {
		return fmt.Errorf("ms: nil policy")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	se.swapMu.Lock()
	defer se.swapMu.Unlock()
	for _, s := range se.shards {
		if err := s.SetPolicy(p); err != nil {
			return err
		}
	}
	return nil
}

// InvalidateUser drops one user's cached fragments on their owner shard.
func (se *ShardedEngine) InvalidateUser(u txn.UserID) { se.owner(u).InvalidateUser(u) }

// Configuration accessors delegate to shard 0: shards are built from one
// bundle and option set and swapped in lockstep, so any shard answers.

// BundleVersion returns the active bundle's version string.
func (se *ShardedEngine) BundleVersion() string { return se.shards[0].BundleVersion() }

// ModelInfo returns the active bundle's metadata.
func (se *ShardedEngine) ModelInfo() ModelInfo { return se.shards[0].ModelInfo() }

// currentPolicy satisfies the HTTP layer's engine surface (GET /v1/policy).
func (se *ShardedEngine) currentPolicy() *decision.Policy { return se.shards[0].currentPolicy() }

// PolicyEnabled reports whether the shards decide as well as score.
func (se *ShardedEngine) PolicyEnabled() bool { return se.shards[0].PolicyEnabled() }

// PolicyVersion returns the active policy's version ("" when disabled).
func (se *ShardedEngine) PolicyVersion() string { return se.shards[0].PolicyVersion() }

// PolicyInfo summarises the active policy.
func (se *ShardedEngine) PolicyInfo() PolicyInfo { return se.shards[0].PolicyInfo() }

// StreamEnabled reports whether the engine maintains a live window.
func (se *ShardedEngine) StreamEnabled() bool { return se.shards[0].StreamEnabled() }

// Ingested returns the shared live window's accepted-transaction count.
// The store is one object shared by every shard, so shard 0's view is
// the fleet's — summing per-shard reads would count each ingest N times.
func (se *ShardedEngine) Ingested() int64 { return se.shards[0].Ingested() }

// DriftEnabled reports whether drift monitoring is configured.
func (se *ShardedEngine) DriftEnabled() bool { return se.shards[0].DriftEnabled() }

// DriftAlerted reports whether any shard's monitor alerts.
func (se *ShardedEngine) DriftAlerted() bool {
	for _, s := range se.shards {
		if s.DriftAlerted() {
			return true
		}
	}
	return false
}

// Health snapshots readiness: shard 0's configuration view (uniform by
// construction) with the fleet's shard count and an OR over the shard
// drift alerts.
func (se *ShardedEngine) Health() HealthInfo {
	h := se.shards[0].Health()
	h.Shards = len(se.shards)
	h.DriftAlert = se.DriftAlerted()
	return h
}

// ShardedUploader routes user uploads across a shard ring: each user's
// fragments land on the feature table their owner shard reads, the
// sharded counterpart of ms.Uploader.
type ShardedUploader struct {
	ups []Uploader
}

// NewShardedUploader builds an uploader over the ring's feature tables
// (index i serves shard i, as in NewSharded). Invalidation is unwired —
// use ShardedEngine.Uploader to re-publish against a live engine.
func NewShardedUploader(tables []*hbase.Table, version int64) *ShardedUploader {
	ups := make([]Uploader, len(tables))
	for i, tab := range tables {
		ups[i] = Uploader{Table: tab, Version: version}
	}
	return &ShardedUploader{ups: ups}
}

// Uploader builds a ShardedUploader over the engine's own tables with
// invalidation wired to each owner shard's cache, so a live
// re-publication is visible to the very next score.
func (se *ShardedEngine) Uploader(version int64) *ShardedUploader {
	ups := make([]Uploader, len(se.shards))
	for i, s := range se.shards {
		ups[i] = Uploader{Table: s.table, Version: version, Invalidate: s.InvalidateUser}
	}
	return &ShardedUploader{ups: ups}
}

// PutUser writes one user's fragments to their owner shard's table.
func (su *ShardedUploader) PutUser(u *txn.User, stats feature.UserStats, emb []float32) error {
	return su.ups[ShardOf(u.ID, len(su.ups))].PutUser(u, stats, emb)
}

// compile-time: both engines satisfy the HTTP layer's serving surface.
var (
	_ engineAPI = (*Server)(nil)
	_ engineAPI = (*ShardedEngine)(nil)
)
