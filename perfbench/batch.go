package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/loadgen"
	"titant/internal/model"
	"titant/internal/ms"
	"titant/internal/txn"
)

// batch-cold: DecideBatch of fixed 1000-transaction batches with users
// uniform over a population six times the user cache, so most users miss
// it and the store, record decode, feature assembly, member scoring,
// policy and shadow path do the work. No HTTP, router or event log.
const (
	batchSize      = 1000
	batchCount     = 8    // distinct batches, cycled
	batchUserCache = 1024 // entries; the 6000-user world is ~6x this
)

type batchFixture struct {
	s       *stack
	eng     *ms.Server
	batches [][]txn.Transaction
	ref     [][]ms.Decision // each batch's verdicts, decided at set-up
}

func (f *batchFixture) close() {
	f.eng.Close()
	f.s.close()
}

func buildBatch(cfg config, i int) (*batchFixture, error) {
	dir, err := runDir(cfg, i)
	if err != nil {
		return nil, err
	}
	s, err := buildStack(dir, 1, true)
	if err != nil {
		return nil, err
	}
	opts := append(s.engineOptions(batchUserCache, s.newStream()), ms.WithShadow(s.shadow))
	eng, err := ms.New(s.tables[0], s.bundle, opts...)
	if err != nil {
		s.close()
		return nil, err
	}
	f := &batchFixture{s: s, eng: eng}
	tr := newTraffic(cfg.seed, s.world.Users, 0, loadgen.OpMix{}, s.testDay, nil, nil)
	for k := 0; k < batchCount; k++ {
		b := tr.batch(batchSize)
		ds, err := eng.DecideBatch(context.Background(), b, nil)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("reference batch %d: %w", k, err)
		}
		f.batches = append(f.batches, b)
		f.ref = append(f.ref, ds)
	}
	return f, nil
}

// check compares a batch's verdicts with the set-up reference, bit for
// bit, and checks each is well formed. It returns the failed count and
// the first failure.
func (f *batchFixture) check(k int, got []ms.Decision) (int, string) {
	ref := f.ref[k]
	if len(got) != len(ref) {
		return len(ref), fmt.Sprintf("batch %d: %d verdicts for %d transactions", k, len(got), len(ref))
	}
	bad, first := 0, ""
	for i := range got {
		it := item{t: f.batches[k][i]}
		msg := checkDecision(&got[i], &it, f.s.thr, f.s.policy.Version)
		if msg == "" && (math.Float64bits(got[i].Score) != math.Float64bits(ref[i].Score) ||
			got[i].Action != ref[i].Action || got[i].Fraud != ref[i].Fraud) {
			msg = fmt.Sprintf("batch %d txn %d: score %v action %v, reference %v %v",
				k, got[i].TxnID, got[i].Score, got[i].Action, ref[i].Score, ref[i].Action)
		}
		if msg != "" {
			bad++
			if first == "" {
				first = msg
			}
		}
	}
	return bad, first
}

// batchRun is one closed-loop phase: callers issue batches back to back.
type batchRun struct {
	latency samples // per batch, sorted
	raw     []int64 // per batch, in at's order
	at      []time.Duration
	txns    int64
	failed  int64
	first   string
	wall    time.Duration
	calls   []batchCall // in order, for the single-caller traced phase
}

type batchCall struct {
	k      int
	engine *span
}

// runBatches runs callers closed loops for d, each starting on its own
// batch. With a tracer (one caller), every call is a traced request.
func (f *batchFixture) runBatches(callers int, d time.Duration, t *tracer) *batchRun {
	ctx := context.Background()
	out := &batchRun{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat samples
			var at []time.Duration
			var txns, failed int64
			var first string
			for n := 0; time.Since(start) < d; n++ {
				k := (c + n*callers) % batchCount
				t0 := time.Now()
				root := t.begin("request", t0)
				ds, err := f.eng.DecideBatch(ctx, f.batches[k], nil)
				t1 := time.Now()
				eng := t.child(root, "ms.engine", t0, t1)
				t.end(root, time.Now())
				lat = append(lat, int64(t1.Sub(t0)))
				at = append(at, t0.Sub(start))
				txns += batchSize
				bad, msg := batchSize, ""
				if err != nil {
					msg = err.Error()
				} else {
					bad, msg = f.check(k, ds)
				}
				failed += int64(bad)
				if first == "" {
					first = msg
				}
				if t != nil {
					out.calls = append(out.calls, batchCall{k: k, engine: eng})
				}
			}
			mu.Lock()
			out.raw = append(out.raw, lat...)
			out.at = append(out.at, at...)
			out.txns += txns
			out.failed += failed
			if out.first == "" {
				out.first = first
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.latency = samples(out.raw).sorted()
	return out
}

func (r *batchRun) fold(rep *report, what string) {
	rep.attempted += r.txns
	rep.failed += r.failed
	if r.failed > 0 {
		rep.problem("%s: %d transactions failed, first: %s", what, r.failed, r.first)
	}
}

// runBatch is the batch-cold workload: one caller (light), then one per
// CPU (heavy, whose throughput is the capacity).
func runBatch(cfg config) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	f, setup, err := timedSetups(cfg.setups, func(i int) (*batchFixture, error) { return buildBatch(cfg, i) })
	if err != nil {
		return nil, err
	}
	defer f.close()
	if cfg.trace {
		return rep, traceBatch(cfg, f, rep)
	}
	rep.set("setup_s", setup)
	heap := startHeapSampler(heapEvery)
	c0 := readCounters()
	light := f.runBatches(1, phaseDur(cfg, 0.5), nil)
	heavy := f.runBatches(workers(), phaseDur(cfg, 0.5), nil)
	cost := readCounters().sub(c0)
	rep.set("heap_mb", heap.peakMB())
	light.fold(rep, "light")
	heavy.fold(rep, "heavy")
	rep.set("p50_ms.light", windowed(light.raw, light.at, 0.5))
	rep.set("p50_ms.heavy", windowed(heavy.raw, heavy.at, 0.5))
	for _, q := range []float64{0.90, 0.99} {
		rep.note(fmt.Sprintf("p%.0f_ms.light", 100*q), windowed(light.raw, light.at, q), "ms")
		rep.note(fmt.Sprintf("p%.0f_ms.heavy", 100*q), windowed(heavy.raw, heavy.at, q), "ms")
	}
	rep.set("txn_per_s", float64(light.txns)/light.wall.Seconds())
	rep.set("capacity_rps", float64(heavy.txns)/heavy.wall.Seconds())
	perTxn(rep, cost, float64(light.txns+heavy.txns-light.failed-heavy.failed))
	logf("light: %d batches %s", len(light.latency), light.latency)
	logf("heavy: %d batches %s", len(heavy.latency), heavy.latency)
	return rep, nil
}

// traceBatch is the traced run: batches untraced, the same batches
// traced, then each traced batch replayed layer by layer.
func traceBatch(cfg config, f *batchFixture, rep *report) error {
	base := f.runBatches(1, phaseDur(cfg, 0.25), nil)
	t := newTracer(cfg.seed)
	c0 := f.eng.UserCacheStats()
	sh0 := f.eng.ShadowStats()
	traced := f.runBatches(1, phaseDur(cfg, 0.25), t)
	c1 := f.eng.UserCacheStats()
	sh1 := f.eng.ShadowStats()
	base.fold(rep, "baseline")
	traced.fold(rep, "traced")

	// The engine fetches only its cache misses: charge each replayed
	// store visit at the traced phase's miss share. Misses include the
	// shadow path's own fetches, so rows_per_batch counts both.
	misses, hits := c1.Misses-c0.Misses, c1.Hits-c0.Hits
	missShare := float64(misses) / float64(max(misses+hits, 1))
	rp := newReplayer(f.s)
	var visited int64
	var visit, asm, score, pol, layers time.Duration
	var engine samples
	for _, c := range traced.calls {
		res, err := rp.batch(f.batches[c.k])
		if err != nil {
			return err
		}
		if bad := compareScores(f.ref[c.k], res.scores); bad != "" {
			rep.problem("layer replay disagrees with the engine: %s", bad)
		}
		fetch := time.Duration(float64(res.visit) * missShare)
		now := time.Now()
		t.replayed(c.engine, "hbase.visitrows", now, fetch)
		t.replayed(c.engine, "feature.assemble", now, res.assemble)
		t.replayed(c.engine, "model.score.gbdt", now, res.score)
		t.replayed(c.engine, "decision.policy", now, res.policy)
		visited += int64(res.rows)
		visit += res.visit
		asm += res.assemble
		score += res.score
		pol += res.policy
		layers += fetch + res.assemble + res.score + res.policy
		engine = append(engine, c.engine.dur())
	}
	a := t.analyze()
	n := float64(len(traced.calls))
	txns := n * batchSize
	perTxn := engine.sorted().us(0.5) / batchSize
	rep.set("ms.batch_us_per_txn", perTxn)
	// Replayed layers run one thread each; the engine spreads assembly and
	// scoring over its worker pool, so the residual goes negative when the
	// pool overlaps more than fan-out and copying cost.
	rep.set("ms.batch.residual_us_per_txn", perTxn-float64(layers.Nanoseconds())/1e3/txns)
	rep.set("hbase.rows_per_batch", float64(misses)/n)
	rep.set("hbase.visitrows_us_per_row", float64(visit.Nanoseconds())/1e3/float64(visited))
	rep.set("feature.assemble_us_per_row", float64(asm.Nanoseconds())/1e3/txns)
	rep.set("model.score_us_per_row.gbdt", float64(score.Nanoseconds())/1e3/txns)
	rep.set("decision.policy_ns_per_row", float64(pol.Nanoseconds())/txns)
	if d := (sh1.Scored - sh0.Scored) + (sh1.Dropped - sh0.Dropped); d > 0 {
		rep.set("decision.shadow_scored_ratio", float64(sh1.Scored-sh0.Scored)/float64(d))
	}
	cacheRatios(rep, c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Evictions-c0.Evictions, int(traced.txns))
	return finishTrace(cfg, t, a, base.latency.ms(0.5), traced.latency.ms(0.5), rep)
}

// compareScores checks replayed scores against the engine's, bitwise.
func compareScores(ref []ms.Decision, scores []float64) string {
	for i := range ref {
		if math.Float64bits(ref[i].Score) != math.Float64bits(scores[i]) {
			return fmt.Sprintf("txn %d: replay score %v, engine %v", ref[i].TxnID, scores[i], ref[i].Score)
		}
	}
	return ""
}

// replayer feeds a batch through the layers behind the engine API, each
// timed on its own: the store multi-get with record decode, feature
// assembly, the champion's batch scorer, and the policy.
type replayer struct {
	s    *stack
	city liveCity
	vel  *stream.Store
}

// newReplayer builds the replay over a fresh warmed window: batch-cold
// ingests nothing, so it matches the engine's.
func newReplayer(s *stack) *replayer {
	st := s.newStream()
	return &replayer{s: s, city: liveCity{st, &s.bundle.City}, vel: st}
}

// liveCity reads city statistics from the live window, falling back to
// the bundle's frozen table for a city the window has not seen: what the
// engine reads once the window is warm.
type liveCity struct {
	live   *stream.Store
	frozen *feature.CityTable
}

func (c liveCity) Lookup(city uint16) (float64, float64) {
	if f, sh, n := c.live.LookupCity(city); n > 0 {
		return f, sh
	}
	return c.frozen.Lookup(city)
}

type replayResult struct {
	rows                           int
	visit, assemble, score, policy time.Duration
	scores                         []float64
}

func (r *replayer) batch(b []txn.Transaction) (*replayResult, error) {
	index := map[txn.UserID]int{}
	var ids []txn.UserID
	for i := range b {
		for _, u := range [2]txn.UserID{b[i].From, b[i].To} {
			if _, ok := index[u]; !ok {
				index[u] = len(ids)
				ids = append(ids, u)
			}
		}
	}
	keys := make([]string, len(ids))
	for i, u := range ids {
		keys[i] = ms.RowKey(u)
	}
	dim := r.s.bundle.EmbeddingDim
	embs := make([][]float32, len(ids))
	for i := range embs {
		embs[i] = make([]float32, 0, dim)
	}
	res := &replayResult{rows: len(ids)}

	start := time.Now()
	err := r.s.tables[0].VisitRows(keys, func(i int, c *hbase.Cell) bool {
		if c.Family == ms.FamilyEmb && c.Qualifier == ms.QualVector {
			v := embs[i][:0]
			for k := 0; k+4 <= len(c.Value); k += 4 {
				v = append(v, math.Float32frombits(binary.LittleEndian.Uint32(c.Value[k:])))
			}
			embs[i] = v
		}
		return true
	})
	res.visit = time.Since(start)
	if err != nil {
		return nil, err
	}

	m := feature.NewMatrix(len(b), feature.NumBasic+2*dim)
	start = time.Now()
	for i := range b {
		t := &b[i]
		row := m.Row(i)
		feature.BasicFromParts(t, r.s.users[t.From], r.s.users[t.To], r.city, row[:feature.NumBasic])
		for k, e := range embs[index[t.From]] {
			row[feature.NumBasic+k] = float64(e)
		}
		for k, e := range embs[index[t.To]] {
			row[feature.NumBasic+dim+k] = float64(e)
		}
	}
	res.assemble = time.Since(start)

	res.scores = make([]float64, len(b))
	start = time.Now()
	if err := model.ScoreMatrixInto(res.scores, r.s.clf, m); err != nil {
		return nil, err
	}
	res.score = time.Since(start)

	start = time.Now()
	for i := range b {
		r.s.policy.Decide(&decision.Input{Txn: &b[i], Score: res.scores[i], Velocity: r.vel})
	}
	res.policy = time.Since(start)
	return res, nil
}
