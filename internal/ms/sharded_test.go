package ms

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"titant/internal/feature"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/rng"
	"titant/internal/txn"
)

const shardTestUsers = 60

// userSink is the upload surface shared by Uploader and ShardedUploader.
type userSink interface {
	PutUser(u *txn.User, stats feature.UserStats, emb []float32) error
}

// seedShardUsers uploads a deterministic population through any sink, so
// a single table and a shard ring can be populated identically.
func seedShardUsers(t testing.TB, sink userSink) {
	t.Helper()
	for i := txn.UserID(0); i < shardTestUsers; i++ {
		u := txn.User{
			ID: i, Age: uint8(20 + int(i)%40), HomeCity: uint16(i % 4),
			AccountAge: txn.AccountAgeDays(30 * int(i)), AvgAmount: float32(10 + i),
		}
		st := feature.UserStats{OutCount: float64(i % 10), InCount: float64(i % 7)}
		if err := sink.PutUser(&u, st, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func shardTables(t testing.TB, n int) []*hbase.Table {
	t.Helper()
	tabs := make([]*hbase.Table, n)
	for i := range tabs {
		tabs[i] = table(t)
	}
	return tabs
}

// shardTxns draws a deterministic traffic sample over the test users.
func shardTxns(n int, seed uint64) []txn.Transaction {
	r := rng.New(seed)
	txns := make([]txn.Transaction, n)
	for i := range txns {
		txns[i] = txn.Transaction{
			ID: txn.TxnID(i + 1), Day: 1, Sec: int32(i % 86400),
			From: txn.UserID(r.Intn(shardTestUsers)), To: txn.UserID(r.Intn(shardTestUsers)),
			Amount: float32(r.Float64() * 2000), TransCity: uint16(r.Intn(4)),
		}
	}
	return txns
}

// buildSharded populates a fresh n-table ring and builds the engine over
// it with a private stream store, mirroring newReference below.
func buildSharded(t *testing.T, n int, b *Bundle, extra ...Option) *ShardedEngine {
	t.Helper()
	tabs := shardTables(t, n)
	seedShardUsers(t, NewShardedUploader(tabs, 0))
	st := stream.New(stream.WithCities(4), stream.WithWindow(8, 86400))
	opts := append([]Option{WithStreamAggregates(st), WithUserCache(256)}, extra...)
	se, err := NewSharded(tabs, b, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(se.Close)
	return se
}

func newReference(t *testing.T, b *Bundle) *Server {
	t.Helper()
	tab := table(t)
	seedShardUsers(t, &Uploader{Table: tab})
	st := stream.New(stream.WithCities(4), stream.WithWindow(8, 86400))
	srv, err := New(tab, b, WithStreamAggregates(st), WithUserCache(256))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestShardOf(t *testing.T) {
	if got := ShardOf(42, 1); got != 0 {
		t.Fatalf("ShardOf(42, 1) = %d", got)
	}
	// Stable, in range, and non-degenerate.
	hit := make(map[int]int)
	for u := txn.UserID(0); u < 10000; u++ {
		s := ShardOf(u, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d, 8) = %d out of range", u, s)
		}
		if s != ShardOf(u, 8) {
			t.Fatalf("ShardOf(%d, 8) unstable", u)
		}
		hit[s]++
	}
	for s := 0; s < 8; s++ {
		if hit[s] < 10000/8/2 {
			t.Fatalf("shard %d owns only %d of 10000 users", s, hit[s])
		}
	}
	// Jump hashing: growing the ring only moves users onto new shards —
	// a user never relocates between two surviving shards.
	for u := txn.UserID(0); u < 10000; u++ {
		s4, s5 := ShardOf(u, 4), ShardOf(u, 5)
		if s4 != s5 && s5 != 4 {
			t.Fatalf("user %d moved %d -> %d when shard 4 was added", u, s4, s5)
		}
	}
}

// TestShardedRebalanceBitwise is the resharding correctness proof: the
// same world partitioned 1, 3 and 5 ways must produce bit-identical
// scores for identical traffic. Shard-local state (tables, caches) moves
// with its owner and the stream window is shared, so the verdict function
// is independent of the partition count by construction.
func TestShardedRebalanceBitwise(t *testing.T) {
	b := trainToy(t, 0)
	ref := newReference(t, b)
	se3 := buildSharded(t, 3, b)
	se5 := buildSharded(t, 5, b)

	// A deterministic in-window ingest warms every engine identically
	// (sequential: concurrent sub-batch ingest is order-independent for
	// the window state, but sequencing keeps the test's intent obvious).
	warm := shardTxns(300, 11)
	for i := range warm {
		if err := ref.Ingest(&warm[i]); err != nil {
			t.Fatal(err)
		}
		if err := se3.Ingest(&warm[i]); err != nil {
			t.Fatal(err)
		}
		if err := se5.Ingest(&warm[i]); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	txns := shardTxns(400, 7)
	want, err := ref.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	for name, se := range map[string]*ShardedEngine{"3-shard": se3, "5-shard": se5} {
		got, err := se.ScoreBatch(ctx, txns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d verdicts, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].TxnID != want[i].TxnID {
				t.Fatalf("%s: verdict %d out of order: txn %d", name, i, got[i].TxnID)
			}
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) || got[i].Fraud != want[i].Fraud {
				t.Fatalf("%s: verdict %d (txn %d): score %v (%x) != reference %v (%x)",
					name, i, txns[i].ID, got[i].Score, math.Float64bits(got[i].Score),
					want[i].Score, math.Float64bits(want[i].Score))
			}
		}
	}
}

// TestShardedSingleShardIdentical: N=1 over the very same table is the
// unsharded engine, bit for bit.
func TestShardedSingleShardIdentical(t *testing.T) {
	b := trainToy(t, 0)
	tab := table(t)
	seedShardUsers(t, &Uploader{Table: tab})
	ref, err := New(tab, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	se, err := NewSharded([]*hbase.Table{tab}, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(se.Close)
	if se.Shards() != 1 {
		t.Fatalf("Shards() = %d", se.Shards())
	}

	ctx := context.Background()
	txns := shardTxns(200, 3)
	want, err := ref.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
			got[i].Fraud != want[i].Fraud || got[i].Version != want[i].Version {
			t.Fatalf("verdict %d: sharded %+v != unsharded %+v", i, got[i], want[i])
		}
	}
}

// TestShardedBatchMatchesSingles: scatter/gather preserves input order
// and agrees with the single-transaction path on the same engine.
func TestShardedBatchMatchesSingles(t *testing.T) {
	se := buildSharded(t, 4, trainToy(t, 0))
	ctx := context.Background()
	txns := shardTxns(250, 5)
	verdicts, err := se.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range txns {
		if verdicts[i].TxnID != txns[i].ID {
			t.Fatalf("verdict %d out of order: txn %d", i, verdicts[i].TxnID)
		}
		want, err := se.Score(ctx, &txns[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(verdicts[i].Score) != math.Float64bits(want.Score) {
			t.Fatalf("verdict %d: batch %v != single %v", i, verdicts[i].Score, want.Score)
		}
	}
	if st := se.Stats(); st.Scored != int64(2*len(txns)) || st.LatencyHist.Total() != int64(2*len(txns)) {
		t.Fatalf("merged scored = %d, histogram total = %d, want %d", st.Scored, st.LatencyHist.Total(), 2*len(txns))
	}
}

func TestShardedBatchLimit(t *testing.T) {
	se := buildSharded(t, 2, trainToy(t, 0), WithMaxBatch(4))
	ctx := context.Background()
	if v, err := se.ScoreBatch(ctx, nil); err != nil || v != nil {
		t.Fatalf("empty batch: %v, %v", v, err)
	}
	if _, err := se.ScoreBatch(ctx, make([]txn.Transaction, 5)); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
}

// TestShardedSwapAllShards: one SetBundle/SetPolicy lands on every shard,
// and concurrent batches never observe a torn swap (all verdicts in one
// batch carry one version).
func TestShardedSwapAllShards(t *testing.T) {
	b1 := trainToy(t, 0)
	se := buildSharded(t, 3, b1, WithPolicy(decidePolicy(t)))
	b2 := *b1
	b2.Version = "2017-04-17"

	ctx := context.Background()
	txns := shardTxns(64, 9)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			vs, err := se.ScoreBatch(ctx, txns)
			if err != nil {
				t.Errorf("ScoreBatch during swap: %v", err)
				return
			}
			for i := range vs {
				if vs[i].Version != vs[0].Version {
					t.Errorf("torn swap: verdict 0 version %q, verdict %d version %q", vs[0].Version, i, vs[i].Version)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		nb := b1
		if i%2 == 0 {
			nb = &b2
		}
		if err := se.SetBundle(nb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if err := se.SetBundle(&b2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < se.Shards(); i++ {
		if v := se.Shard(i).BundleVersion(); v != "2017-04-17" {
			t.Fatalf("shard %d still serves %q after swap", i, v)
		}
	}
	if err := se.SetPolicy(decidePolicy(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < se.Shards(); i++ {
		if v := se.Shard(i).PolicyVersion(); v != "pol-1" {
			t.Fatalf("shard %d policy %q after swap", i, v)
		}
	}
	if _, err := se.DecideBatch(ctx, txns, nil); err != nil {
		t.Fatal(err)
	}
	if ds := se.Stats().Policy; ds == nil || ds.Decided != int64(len(txns)) {
		t.Fatalf("merged policy = %+v, want %d decided", ds, len(txns))
	}
}

// TestShardedAdmissionTopLevel: quotas gate once at the engine level, not
// once per shard — N shards must not multiply a caller's budget by N.
func TestShardedAdmissionTopLevel(t *testing.T) {
	se := buildSharded(t, 4, trainToy(t, 0), WithCallerQuota(1, 2))
	for i := 0; i < se.Shards(); i++ {
		if se.Shard(i).AdmissionEnabled() {
			t.Fatalf("shard %d kept its own admission gate", i)
		}
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		release, err := se.Admit(ctx, 1)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release()
	}
	if _, err := se.Admit(ctx, 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	as := se.Stats().Admission
	if as == nil || as.Admitted != 2 || as.ShedQuota != 1 {
		t.Fatalf("admission stats = %+v", as)
	}
}

func TestNewShardedRejectsEventLog(t *testing.T) {
	tabs := shardTables(t, 2)
	_, err := NewSharded(tabs, trainToy(t, 0), WithEventLog(t.TempDir()))
	if err == nil || !strings.Contains(err.Error(), "WithEventLog") {
		t.Fatalf("err = %v, want WithEventLog rejection", err)
	}
}

// TestShardedStatsMerge: the merged stats body sums counters and
// histograms across shards instead of reporting shard 0 only.
func TestShardedStatsMerge(t *testing.T) {
	se := buildSharded(t, 3, trainToy(t, 0), WithCallerQuota(1000, 1000))
	ctx := context.Background()
	txns := shardTxns(90, 13)
	if _, err := se.ScoreBatch(ctx, txns); err != nil {
		t.Fatal(err)
	}

	// Every shard did real work (the hash spreads 60 users over 3
	// shards), so a shard-0-only stats view cannot equal the merge.
	var perShard int64
	for i := 0; i < se.Shards(); i++ {
		c := se.Shard(i).Latency().Count
		if c == 0 {
			t.Fatalf("shard %d scored nothing", i)
		}
		if c == int64(len(txns)) {
			t.Fatalf("shard %d scored the whole batch", i)
		}
		perShard += c
	}
	if perShard != int64(len(txns)) {
		t.Fatalf("per-shard counts sum to %d, want %d", perShard, len(txns))
	}

	st := se.Stats()
	if st.Scored != int64(len(txns)) {
		t.Fatalf("merged scored = %d, want %d", st.Scored, len(txns))
	}
	if st.Shards != 3 {
		t.Fatalf("shards = %d, want 3", st.Shards)
	}
	if got := st.LatencyHist.Total(); got != int64(len(txns)) {
		t.Fatalf("merged histogram holds %d samples, want %d", got, len(txns))
	}
	cs := st.UserCache
	if cs == nil || cs.Capacity < 256 {
		t.Fatalf("merged cache = %+v, want capacity >= 256", cs)
	}
	if cs.Hits+cs.Misses == 0 {
		t.Fatal("merged cache saw no traffic")
	}
	if adm := st.Admission; adm == nil || adm.Admitted != int64(len(txns)) {
		t.Fatalf("merged admission = %+v, want %d admitted", adm, len(txns))
	}
	if h := se.Health(); h.Shards != 3 || h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}

// TestShardedIngestRouting: ingest fans out by owner yet lands in the one
// shared window, and the live signal reaches scoring exactly as it does
// unsharded.
func TestShardedIngestRouting(t *testing.T) {
	b := trainToy(t, 0)
	se := buildSharded(t, 3, b)
	ref := newReference(t, b)

	warm := shardTxns(120, 17)
	if err := se.IngestBatch(warm); err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if err := ref.Ingest(&warm[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := se.Ingested(), ref.Ingested(); got != want {
		t.Fatalf("sharded ingested %d, unsharded %d", got, want)
	}

	ctx := context.Background()
	txns := shardTxns(100, 19)
	want, err := ref.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("verdict %d: sharded %v != unsharded %v after ingest", i, got[i].Score, want[i].Score)
		}
	}
}

// TestShardedUploaderInvalidation: a live re-publication through the
// engine's uploader is visible to the next score on the owner shard.
func TestShardedUploaderInvalidation(t *testing.T) {
	se := buildSharded(t, 3, trainToy(t, 0))
	ctx := context.Background()
	tr := txn.Transaction{ID: 1, From: 7, To: 8, Amount: 500}
	if _, err := se.Score(ctx, &tr); err != nil { // warm the owner's cache
		t.Fatal(err)
	}
	// Re-publish user 7 with a different profile (version 0 = auto: a
	// fresh wall-clock version that supersedes the seed wave's).
	up := se.Uploader(0)
	u := txn.User{ID: 7, Age: 75, HomeCity: 1, AvgAmount: 9000}
	if err := up.PutUser(&u, feature.UserStats{OutCount: 40, InCount: 1}, nil); err != nil {
		t.Fatal(err)
	}
	// Read through a NON-owner shard: the ring must route to the owner,
	// whose cache the uploader just invalidated, so the fresh profile —
	// not the warm pre-publication entry — comes back.
	other := se.Shard((ShardOf(7, se.Shards()) + 1) % se.Shards())
	parts, err := other.fetchOne(7)
	if err != nil {
		t.Fatal(err)
	}
	if parts.user.Age != 75 || parts.stats.OutCount != 40 {
		t.Fatalf("stale fragments after re-publication: %+v", parts.user)
	}
}
