package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"titant/internal/decision"
	"titant/internal/loadgen"
	"titant/internal/ms"
	"titant/internal/router"
	"titant/internal/telemetry"
)

// wire-mixed: the production path, gateway to router to Model Server.
// Two shard servers on loopback behind router.New, single-transaction
// requests in loadgen's default op mix, Zipf users over a population the
// user cache holds. Fixed rates sit well below the fleet's knee.
const (
	wireShards = 2
	wireLight  = 500
	wireHeavy  = 2000
	wireZipf   = 1.07
	wireWarmup = 2000 // requests sent before measuring
)

// wireFleet is the in-process wire tier: shard servers and the router on
// loopback listeners, and the client the benchmark drives them with.
type wireFleet struct {
	s       *stack
	engines []*ms.Server
	url     string
	client  *http.Client
	live    atomic.Pointer[tracer] // non-nil while a traced phase runs
	tt      *timingTransport       // the router's transport (traced runs only)
	closers []func()
}

func (f *wireFleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.s.close()
}

// serve runs h on an ephemeral loopback port until the fleet closes.
func (f *wireFleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	f.closers = append(f.closers, func() { srv.Close(); <-done })
	return "http://" + ln.Addr().String(), nil
}

// buildWire stands up the fleet. traced wraps the router handler, its
// transport and the shard handlers with span recorders that stay idle
// until a traced phase sets f.live.
func buildWire(cfg config, i int, traced bool) (*wireFleet, error) {
	dir, err := runDir(cfg, i)
	if err != nil {
		return nil, err
	}
	s, err := buildStack(dir, wireShards, false)
	if err != nil {
		return nil, err
	}
	f := &wireFleet{s: s}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	urls := make([]string, wireShards)
	for k := range urls {
		// Each shard keeps the full live window, as `titant loadgen
		// -chaos` fleets do: replicated warm-up keeps a shard's verdicts
		// those of a single engine.
		eng, err := ms.New(s.tables[k], s.bundle, s.engineOptions(0, s.newStream())...)
		if err != nil {
			return nil, err
		}
		f.engines = append(f.engines, eng)
		f.closers = append(f.closers, eng.Close)
		var h http.Handler = eng.Handler()
		if traced {
			h = liveHandler(&f.live, "ms.http", h)
		}
		if urls[k], err = f.serve(h); err != nil {
			return nil, err
		}
	}
	upstream := &http.Transport{MaxIdleConnsPerHost: 4 * workers()}
	f.closers = append(f.closers, upstream.CloseIdleConnections)
	var rt http.RoundTripper = upstream
	if traced {
		f.tt = &timingTransport{base: upstream, live: &f.live}
		rt = f.tt
	}
	rtr, err := router.New(urls, router.WithTransport(rt), router.WithSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	var h http.Handler = rtr.Handler()
	if traced {
		h = liveHandler(&f.live, "router", h)
	}
	if f.url, err = f.serve(h); err != nil {
		return nil, err
	}
	client := &http.Transport{MaxIdleConnsPerHost: workers(), MaxConnsPerHost: workers()}
	f.closers = append(f.closers, client.CloseIdleConnections)
	f.client = &http.Client{Transport: client, Timeout: 10 * time.Second}

	warm := newTraffic(cfg.seed^seedWarm, s.world.Users, wireZipf, loadgen.DefaultOpMix(), s.testDay, nil, nil)
	warm.encode = true
	items := warm.phase(cfg.seed^seedWarm, wireHeavy, wireWarmup*time.Second/wireHeavy)
	p, err := openPhase(context.Background(), items, wireHeavy, nil, f.do)
	if err == nil && p.failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d requests failed, first: %s", p.failed, p.sent(), p.firstErr)
	}
	if err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// encodeBodies renders every item's v1 request body before the phase,
// so the clock measures the serving stack rather than the benchmark's
// own JSON encoder.
func encodeBodies(items []item) {
	for i := range items {
		it := &items[i]
		req := ms.TxnRequest{
			ID: int64(it.t.ID), Day: int(it.t.Day), Sec: it.t.Sec,
			From: int32(it.t.From), To: int32(it.t.To), Amount: it.t.Amount,
			TransCity: it.t.TransCity, DeviceRisk: it.t.DeviceRisk, IPRisk: it.t.IPRisk,
			Channel: uint8(it.t.Channel),
		}
		var body interface{}
		switch it.op {
		case opScore:
			body = req
		case opDecide:
			body = ms.DecideRequest{TxnRequest: req, Scenario: it.scenario.String()}
		default:
			body = ms.IngestRequest{TxnRequest: req, Fraud: it.t.Fraud}
		}
		it.body, _ = json.Marshal(body) // plain structs of numbers and strings always encode
	}
}

var wirePaths = [...]string{opScore: "/v1/score", opDecide: "/v1/decide", opIngest: "/v1/ingest"}

// do sends one request through the router and checks the answer.
func (f *wireFleet) do(ctx context.Context, it *item, root *span) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+wirePaths[it.op], bytes.NewReader(it.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if root != nil {
		req.Header.Set(telemetry.TraceHeader, root.Trace)
	}
	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	f.live.Load().child(root, "bench.client", start, time.Now())
	if err != nil {
		return outcome{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{err: fmt.Errorf("%s: status %d: %s", wirePaths[it.op], resp.StatusCode, bytes.TrimSpace(body))}
	}
	var o outcome
	switch it.op {
	case opScore:
		var v ms.Verdict
		if err := json.Unmarshal(body, &v); err != nil {
			return outcome{bad: fmt.Sprintf("score response: %v", err)}
		}
		o.bad = checkVerdict(&v, it, f.s.thr)
		o.flagged = v.Fraud
	case opDecide:
		var d ms.Decision
		if err := json.Unmarshal(body, &d); err != nil {
			return outcome{bad: fmt.Sprintf("decide response: %v", err)}
		}
		o.bad = checkDecision(&d, it, f.s.thr, f.s.policy.Version)
		o.flagged = d.Action != decision.ActionApprove
	default:
		var r ms.IngestResponse
		if err := json.Unmarshal(body, &r); err != nil || r.Ingested != 1 {
			return outcome{bad: fmt.Sprintf("ingest response %q", body)}
		}
	}
	return o
}

// cacheStats sums the shards' user-cache counters.
func (f *wireFleet) cacheStats() (hits, misses, evictions int64) {
	for _, e := range f.engines {
		st := e.UserCacheStats()
		hits += st.Hits
		misses += st.Misses
		evictions += st.Evictions
	}
	return
}

func wirePlan(s *stack) (openPlan, error) {
	slo, err := loadSLO()
	if err != nil {
		return openPlan{}, err
	}
	return openPlan{light: wireLight, heavy: wireHeavy, slo: slo, man: s.man}, nil
}

func wireTraffic(cfg config, s *stack) *traffic {
	tr := newTraffic(cfg.seed, s.world.Users, wireZipf, loadgen.DefaultOpMix(), s.testDay, s.replay, s.man)
	tr.encode = true
	return tr
}

// runWire is the wire-mixed workload.
func runWire(cfg config) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	f, setup, err := timedSetups(cfg.setups, func(i int) (*wireFleet, error) { return buildWire(cfg, i, cfg.trace) })
	if err != nil {
		return nil, err
	}
	defer f.close()
	plan, err := wirePlan(f.s)
	if err != nil {
		return nil, err
	}
	tr := wireTraffic(cfg, f.s)
	if cfg.trace {
		return rep, traceWire(cfg, f, tr, plan, rep)
	}
	rep.set("setup_s", setup)
	return rep, measureOpen(cfg, tr, plan, f.do, rep)
}

// traceWire is the traced run: the light phase untraced, the same
// requests again traced, then the engine calls behind each traced score
// and decide replayed in process on the owner shard.
func traceWire(cfg config, f *wireFleet, tr *traffic, plan openPlan, rep *report) error {
	ctx := context.Background()
	items := tr.phase(cfg.seed+seedLight, plan.light, phaseDur(cfg, 0.25))
	base, err := plan.fixedPhase(ctx, items, plan.light, nil, f.do)
	if err != nil {
		return err
	}
	t := newTracer(cfg.seed)
	h0, m0, e0 := f.cacheStats()
	f.live.Store(t)
	traced, err := plan.fixedPhase(ctx, items, plan.light, t, f.do)
	f.live.Store(nil)
	if err != nil {
		return err
	}
	h1, m1, e1 := f.cacheStats()
	checkPhase(base, rep)
	checkPhase(traced, rep)
	t.link(map[string]string{"router": "bench.client", "router.upstream": "router", "ms.http": "router.upstream"})

	handler := map[string]*span{}
	for _, s := range t.spans {
		if s.Name == "ms.http" {
			handler[s.Trace] = s
		}
	}
	var codec samples
	for i := range items {
		it, root := &items[i], traced.roots[i]
		h := handler[root.Trace]
		if h == nil || it.op == opIngest {
			continue
		}
		eng := f.engines[ms.ShardOf(it.t.From, len(f.engines))]
		start := time.Now()
		var err error
		if it.op == opScore {
			_, err = eng.Score(ctx, &it.t)
		} else {
			_, err = eng.Decide(ctx, &it.t, it.scenario)
		}
		d := time.Since(start)
		if err != nil {
			rep.problem("replay of txn %d: %v", it.t.ID, err)
			continue
		}
		t.replayed(h, "ms.engine", start, d)
		codec = append(codec, h.dur()-int64(d))
	}
	a := t.analyze()
	rep.set("router.self_us.p50", a.selfOf("router").us(0.5))
	up := a.durOf("router.upstream")
	rep.set("router.upstream_us.p50", up.us(0.5))
	rep.set("router.upstream_us.p99", up.us(0.99))
	rep.set("router.hop_us.p50", a.selfOf("router.upstream").us(0.5))
	if routed := len(a.durOf("router")); routed > 0 {
		rep.set("router.attempts_per_req", float64(f.tt.calls.Load())/float64(routed))
	}
	rep.set("router.failed", float64(f.tt.failed.Load()))
	hd := a.durOf("ms.http")
	rep.set("ms.http.handler_us.p50", hd.us(0.5))
	rep.set("ms.http.handler_us.p99", hd.us(0.99))
	rep.set("ms.http.codec_us.p50", codec.sorted().us(0.5))
	eng := a.durOf("ms.engine")
	rep.set("ms.engine_us.p50", eng.us(0.5))
	rep.set("ms.engine_us.p99", eng.us(0.99))
	cacheRatios(rep, h1-h0, m1-m0, e1-e0, traced.sent())
	setLateness(rep, traced)
	return finishTrace(cfg, t, a, base.latency.ms(0.5), traced.latency.ms(0.5), rep)
}

// cacheRatios sets the user-cache metrics from counter deltas.
func cacheRatios(rep *report, hits, misses, evictions int64, txns int) {
	if hits+misses > 0 {
		rep.set("usercache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	if txns > 0 {
		rep.set("usercache.evictions_per_txn", float64(evictions)/float64(txns))
	}
}

// setLateness sets the generator's lateness in an open-loop traced phase.
func setLateness(rep *report, traced *phaseResult) {
	rep.set("gen.lateness_p50_ms", traced.lateness.ms(0.5))
	rep.set("gen.lateness_p99_ms", traced.lateness.ms(0.99))
}

// finishTrace sets the metrics every traced run reports — coverage and
// the overhead of tracing, from the untraced and traced median latencies
// of the same requests — lists what no layer accounts for, and writes
// the span dump.
func finishTrace(cfg config, t *tracer, a *analysis, baseP50, tracedP50 float64, rep *report) error {
	cov, rest := a.coverage()
	rep.set("trace.coverage", cov)
	if baseP50 > 0 {
		rep.set("trace.overhead_frac", tracedP50/baseP50-1)
	}
	names := make([]string, 0, len(rest))
	for n := range rest {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("not in any layer: %-14s self time p50 %.4fms", n, rest[n])
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := t.dump(path); err != nil {
		return err
	}
	logf("%d spans written to %s", len(t.spans), path)
	return nil
}
