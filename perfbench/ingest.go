package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/feature/stream"
	"titant/internal/loadgen"
	"titant/internal/ms"
	"titant/internal/txn"
)

// ingest-durable: one in-process engine with the durable event log
// (default group-commit fsync) under the live window, half ingest and
// half decide over a Zipf hot set, so log appends, fsyncs and the window
// write path run beside the read path on the same stream store.
const (
	ingestLight  = 4000
	ingestHeavy  = 9000
	ingestZipf   = 1.07
	ingestWarmup = 4000 // requests sent before measuring
)

var ingestMix = loadgen.OpMix{Decide: 0.5, Ingest: 0.5}

type ingestFixture struct {
	s      *stack
	eng    *ms.Server
	logDir string
	acked  atomic.Int64 // ingests the engine acknowledged
	live   atomic.Pointer[tracer]
}

func (f *ingestFixture) close() {
	f.eng.Close()
	f.s.close()
}

func buildIngest(cfg config, i int) (*ingestFixture, error) {
	dir, err := runDir(cfg, i)
	if err != nil {
		return nil, err
	}
	s, err := buildStack(dir, 1, false)
	if err != nil {
		return nil, err
	}
	f := &ingestFixture{s: s, logDir: filepath.Join(dir, "eventlog")}
	opts := append(s.engineOptions(0, s.newStream()), ms.WithEventLog(f.logDir))
	if f.eng, err = ms.New(s.tables[0], s.bundle, opts...); err != nil {
		s.close()
		return nil, err
	}
	warm := newTraffic(cfg.seed^seedWarm, s.world.Users, ingestZipf, ingestMix, s.testDay, nil, nil)
	items := warm.phase(cfg.seed^seedWarm, ingestHeavy, ingestWarmup*time.Second/ingestHeavy)
	p, err := openPhase(context.Background(), items, ingestHeavy, nil, f.do)
	if err == nil && p.failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d requests failed, first: %s", p.failed, p.sent(), p.firstErr)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// do calls the engine in process and checks the answer.
func (f *ingestFixture) do(ctx context.Context, it *item, root *span) outcome {
	start := time.Now()
	if it.op == opIngest {
		err := f.eng.Ingest(&it.t)
		f.live.Load().child(root, "ms.engine", start, time.Now())
		if err != nil {
			return outcome{err: err}
		}
		f.acked.Add(1)
		return outcome{}
	}
	d, err := f.eng.Decide(ctx, &it.t, it.scenario)
	f.live.Load().child(root, "ms.engine", start, time.Now())
	if err != nil {
		return outcome{err: err}
	}
	return outcome{bad: checkDecision(&d, it, f.s.thr, f.s.policy.Version), flagged: d.Action != decision.ActionApprove}
}

// ingestMark is the durability state the end-of-run check compares from.
type ingestMark struct {
	acked, ingested int64
	offset          uint64
}

func (f *ingestFixture) mark() ingestMark {
	return ingestMark{f.acked.Load(), f.eng.Ingested(), f.eng.EventLogStats().NextOffset}
}

// checkDurable closes the engine (flushing and syncing its log), then
// checks every acknowledged ingest since m reached the live window and
// sits in the log as a transaction record.
func (f *ingestFixture) checkDurable(m ingestMark, rep *report) {
	acked := f.acked.Load() - m.acked
	applied := f.eng.Ingested() - m.ingested
	f.eng.Close()
	lg, err := eventlog.Open(f.logDir)
	if err != nil {
		rep.problem("reopen event log: %v", err)
		return
	}
	defer lg.Close()
	var logged int64
	if _, err := lg.ReadFrom(m.offset, func(r eventlog.Record) error {
		if r.Kind == eventlog.KindTxn {
			logged++
		}
		return nil
	}); err != nil {
		rep.problem("read event log: %v", err)
	}
	if applied != acked || logged != acked {
		rep.problem("durability: %d ingests acknowledged, %d applied to the window, %d logged", acked, applied, logged)
	}
	logf("durability: %d ingests acknowledged, applied and logged", acked)
}

// runIngest is the ingest-durable workload.
func runIngest(cfg config) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	f, setup, err := timedSetups(cfg.setups, func(i int) (*ingestFixture, error) { return buildIngest(cfg, i) })
	if err != nil {
		return nil, err
	}
	defer f.close()
	slo, err := loadSLO()
	if err != nil {
		return nil, err
	}
	// Each fixed-rate phase starts from a fresh snapshot. The engine
	// snapshots every ms.DefaultSnapshotEvery log events (about one per
	// request here), stalling ingest while it writes the window out;
	// whether one landed inside a phase would otherwise depend on the
	// seed's arrival counts. At the benchmark's 24 measured seconds the
	// 6-second phases stay under that many events, and the saturation
	// phase pays for its snapshots.
	plan := openPlan{light: ingestLight, heavy: ingestHeavy, slo: slo, man: f.s.man, before: f.eng.Snapshot}
	tr := newTraffic(cfg.seed, f.s.world.Users, ingestZipf, ingestMix, f.s.testDay, f.s.replay, f.s.man)
	m := f.mark()
	if cfg.trace {
		err = traceIngest(cfg, f, tr, plan, rep)
	} else {
		rep.set("setup_s", setup)
		err = measureOpen(cfg, tr, plan, f.do, rep)
	}
	f.checkDurable(m, rep)
	return rep, err
}

// traceIngest is the traced run: the light phase untraced, the same
// requests traced, then each traced request's layers replayed: appends
// to the benchmark's own event log on the same file system, and ingests
// and reads on a replica window it feeds the same stream.
func traceIngest(cfg config, f *ingestFixture, tr *traffic, plan openPlan, rep *report) error {
	ctx := context.Background()
	items := tr.phase(cfg.seed+seedLight, plan.light, phaseDur(cfg, 0.25))
	base, err := plan.fixedPhase(ctx, items, plan.light, nil, f.do)
	if err != nil {
		return err
	}
	t := newTracer(cfg.seed)
	if err := plan.before(); err != nil {
		return err
	}
	c0, l0 := f.eng.UserCacheStats(), f.eng.EventLogStats()
	f.live.Store(t)
	traced, err := openPhase(ctx, items, plan.light, t, f.do)
	f.live.Store(nil)
	if err != nil {
		return err
	}
	c1, l1 := f.eng.UserCacheStats(), f.eng.EventLogStats()
	checkPhase(base, rep)
	checkPhase(traced, rep)

	// The replica window has seen the warm-up and baseline ingests the
	// engine's has, so the replay writes into a window of the same shape.
	replica := f.s.newStream()
	lg, err := eventlog.Open(filepath.Join(f.s.dir, "replay-eventlog"))
	if err != nil {
		return err
	}
	defer lg.Close()
	engine := map[string]*span{}
	for _, s := range t.spans {
		if s.Name == "ms.engine" {
			engine[s.Trace] = s
		}
	}
	payload := make([]byte, txn.RecordSize)
	for i := range items {
		it, e := &items[i], engine[traced.roots[i].Trace]
		if e == nil {
			continue
		}
		if it.op == opIngest {
			txn.EncodeRecord(payload, &it.t)
			start := time.Now()
			if _, err := lg.Append(eventlog.KindTxn, 0, start.UnixNano(), payload); err != nil {
				return err
			}
			t.replayed(e, "eventlog.append", start, time.Since(start))
			start = time.Now()
			replica.Ingest(&it.t)
			t.replayed(e, "stream.ingest", start, time.Since(start))
			continue
		}
		start := time.Now()
		replicaRead(replica, &it.t)
		t.replayed(e, "stream.read", start, time.Since(start))
	}
	a := t.analyze()
	eng := a.durOf("ms.engine")
	rep.set("ms.engine_us.p50", eng.us(0.5))
	rep.set("ms.engine_us.p99", eng.us(0.99))
	si := a.durOf("stream.ingest")
	rep.set("stream.ingest_us.p50", si.us(0.5))
	rep.set("stream.ingest_us.p99", si.us(0.99))
	rep.set("stream.read_us.p50", a.durOf("stream.read").us(0.5))
	ap := a.durOf("eventlog.append")
	rep.set("eventlog.append_us.p50", ap.us(0.5))
	rep.set("eventlog.append_us.p99", ap.us(0.99))
	if fs := l1.Fsyncs - l0.Fsyncs; fs > 0 {
		rep.set("eventlog.records_per_fsync", float64(l1.Appended-l0.Appended)/float64(fs))
	}
	cacheRatios(rep, c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Evictions-c0.Evictions, traced.sent())
	setLateness(rep, traced)
	return finishTrace(cfg, t, a, base.latency.ms(0.5), traced.latency.ms(0.5), rep)
}

// replicaRead is the window read a decide makes: the live city
// statistics and the sender's velocity for rule predicates. Per-user
// Stats is not on the decide path (the stats fragment comes from the
// feature store), so it is not timed.
func replicaRead(st *stream.Store, t *txn.Transaction) {
	st.LookupCity(t.TransCity)
	st.Velocity(t.From)
}
