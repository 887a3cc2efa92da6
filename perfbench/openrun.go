package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"titant/internal/decision"
	"titant/internal/loadgen"
	"titant/internal/ms"
	"titant/internal/synth"
)

// Phase seeds: offsets from the workload seed, so each phase of a run
// draws its own arrivals while staying a function of the one seed.
const (
	seedWarm     = 0x9e3779b97f4a7c15
	seedLight    = 11
	seedHeavy    = 12
	seedSaturate = 100
)

// genLateLimitMs is how late (p99) the generator may release requests at
// a fixed rate before the run is declared invalid: beyond it the
// latencies measure the benchmark's own dispatcher, not the program. A
// healthy run stays near 1 ms; garbage collection alone can push a short
// phase's p99 past 5 ms, so the limit is a tenth of ci/slo.json's 100 ms
// p99 ceiling.
const genLateLimitMs = 10

// heapEvery is how often the heap sampler reads HeapInuse.
const heapEvery = 20 * time.Millisecond

// openPlan is an open-loop workload's load shape.
type openPlan struct {
	light, heavy float64 // fixed Poisson rates, requests per second
	slo          *loadgen.SLO
	man          *synth.Manifest
	// before runs ahead of each fixed-rate phase, when set.
	before func() error
}

// fixedPhase runs plan.before, then one fixed-rate phase of items.
func (plan openPlan) fixedPhase(ctx context.Context, items []item, rate float64, t *tracer, do doFunc) (*phaseResult, error) {
	if plan.before != nil {
		if err := plan.before(); err != nil {
			return nil, err
		}
	}
	return openPhase(ctx, items, rate, t, do)
}

// loadSLO reads the repository's serving SLO for its recall floors.
func loadSLO() (*loadgen.SLO, error) {
	raw, err := os.ReadFile(filepath.Join("ci", "slo.json"))
	if err != nil {
		return nil, fmt.Errorf("read the SLO: %w (run from the repository root)", err)
	}
	return loadgen.ParseSLO(raw)
}

// measureOpen runs the untraced measurement of an open-loop workload:
// the light and heavy fixed-rate phases, then the saturation phase that
// measures capacity and the cost per transaction.
func measureOpen(cfg config, tr *traffic, plan openPlan, do doFunc, rep *report) error {
	ctx := context.Background()
	heap := startHeapSampler(heapEvery)
	defer heap.done()
	light, err := plan.fixedPhase(ctx, tr.phase(cfg.seed+seedLight, plan.light, phaseDur(cfg, 0.25)), plan.light, nil, do)
	if err != nil {
		return err
	}
	heavy, err := plan.fixedPhase(ctx, tr.phase(cfg.seed+seedHeavy, plan.heavy, phaseDur(cfg, 0.25)), plan.heavy, nil, do)
	if err != nil {
		return err
	}
	for _, p := range []*phaseResult{light, heavy} {
		checkPhase(p, rep)
	}
	gradeRecall([]*phaseResult{light, heavy}, plan, rep)
	rep.set("p50_ms.light", light.ms(0.50))
	rep.set("p50_ms.heavy", heavy.ms(0.50))
	for _, q := range []float64{0.90, 0.99} {
		rep.note(fmt.Sprintf("p%.0f_ms.light", 100*q), light.ms(q), "ms")
		rep.note(fmt.Sprintf("p%.0f_ms.heavy", 100*q), heavy.ms(q), "ms")
	}
	fixedDone := float64(light.sent()+heavy.sent()) - float64(light.failed+heavy.failed)
	rep.set("txn_per_s", fixedDone/(light.wall+heavy.wall).Seconds())
	logf("light %.0f/s: %s, late %s", plan.light, light.latency, light.lateness)
	logf("heavy %.0f/s: %s, late %s", plan.heavy, heavy.latency, heavy.lateness)

	items := tr.phase(cfg.seed+seedSaturate, plan.heavy, 5*time.Second)
	c0 := readCounters()
	sat := runClosed(ctx, items, workers(), phaseDur(cfg, 0.5), do)
	cost := readCounters().sub(c0)
	rep.set("heap_mb", heap.peakMB())
	rep.attempted += sat.sent
	rep.failed += sat.failed
	if sat.failed > 0 {
		rep.problem("saturation phase: %d failed, first: %s", sat.failed, sat.first)
	}
	done := float64(sat.sent - sat.failed)
	rep.set("capacity_rps", done/sat.wall.Seconds())
	perTxn(rep, cost, done)
	logf("saturation: %d sent in %s", sat.sent, sat.wall)
	return nil
}

// openPhase runs one open-loop phase of items drawn at rate.
func openPhase(ctx context.Context, items []item, rate float64, t *tracer, do doFunc) (*phaseResult, error) {
	p, err := runOpen(ctx, items, workers(), t, do)
	if err != nil {
		return nil, err
	}
	p.rate = rate
	return p, nil
}

// perTxn sets the CPU and allocation cost per completed transaction.
func perTxn(rep *report, cost counters, done float64) {
	if done <= 0 {
		return
	}
	rep.set("cpu_us_per_txn", float64(cost.cpu.Microseconds())/done)
	rep.set("allocs_per_txn", float64(cost.mallocs)/done)
}

// checkPhase folds a fixed-rate phase's counts and generator health into
// the report.
func checkPhase(p *phaseResult, rep *report) {
	rep.attempted += int64(p.sent())
	rep.failed += p.failed
	if p.failed > 0 {
		rep.problem("%.0f/s phase: %d failed, first: %s", p.rate, p.failed, p.firstErr)
	}
	if late := p.lateness.ms(0.99); late > genLateLimitMs {
		rep.problem("%.0f/s phase: generator ran %.2fms late at p99 (limit %dms): the run measured the benchmark, not the program",
			p.rate, late, genLateLimitMs)
	}
}

// gradeRecall checks recall on the replayed labeled slice against the
// SLO's floors.
func gradeRecall(phases []*phaseResult, plan openPlan, rep *report) {
	fraudKind := plan.man.FraudByTxn()
	replayed, flagged := map[string]int{}, map[string]int{}
	for _, p := range phases {
		for i := range p.items {
			it := &p.items[i]
			kind, fraud := fraudKind[it.t.ID]
			if !it.replay || !fraud {
				continue
			}
			replayed[kind]++
			if o := p.outcomes[i]; o.err == nil && o.flagged {
				flagged[kind]++
			}
		}
	}
	graded := &loadgen.Report{}
	var n, f int
	for kind, r := range replayed {
		graded.Scenarios = append(graded.Scenarios, loadgen.ScenarioReport{
			Kind: kind, Replayed: r, Flagged: flagged[kind], Recall: float64(flagged[kind]) / float64(r)})
		n += r
		f += flagged[kind]
	}
	if n > 0 {
		graded.Recall = float64(f) / float64(n)
	}
	for _, v := range graded.CheckSLO(&loadgen.SLO{MinRecall: plan.slo.MinRecall}) {
		rep.problem("detection: %s", v)
	}
	logf("recall %.3f over %d replayed fraud transactions", graded.Recall, n)
}

// checkVerdict checks one answer is well formed: the transaction it was
// asked about, a finite score on the same side of the threshold as the
// fraud flag, and the deployed model version. The score is not checked
// against [0,1]: the GBDT champion serves its raw additive score, which
// dips slightly below 0 on clean traffic, and the policy clamps it.
func checkVerdict(v *ms.Verdict, it *item, thr float64) string {
	switch {
	case v.TxnID != it.t.ID:
		return fmt.Sprintf("txn %d answered as txn %d", it.t.ID, v.TxnID)
	case math.IsNaN(v.Score) || math.IsInf(v.Score, 0):
		return fmt.Sprintf("txn %d: score %v is not finite", it.t.ID, v.Score)
	case v.Fraud != (v.Score >= thr):
		return fmt.Sprintf("txn %d: fraud=%v disagrees with score %v vs threshold %v", it.t.ID, v.Fraud, v.Score, thr)
	case v.Version != bundleVersion:
		return fmt.Sprintf("txn %d: model version %q, deployed %q", it.t.ID, v.Version, bundleVersion)
	}
	return ""
}

// checkDecision adds the decision's own fields: a known action under the
// deployed policy, for the scenario asked.
func checkDecision(d *ms.Decision, it *item, thr float64, policyVersion string) string {
	if bad := checkVerdict(&d.Verdict, it, thr); bad != "" {
		return bad
	}
	switch {
	case int(d.Action) >= decision.NumActions:
		return fmt.Sprintf("txn %d: unknown action %d", it.t.ID, d.Action)
	case d.PolicyVersion != policyVersion:
		return fmt.Sprintf("txn %d: policy version %q, deployed %q", it.t.ID, d.PolicyVersion, policyVersion)
	case d.Scenario != it.scenario:
		return fmt.Sprintf("txn %d: scenario %v, asked %v", it.t.ID, d.Scenario, it.scenario)
	}
	return ""
}
