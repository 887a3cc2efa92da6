// Command perfbench is the serving benchmark: it builds the TitAnt
// serving stack in process from a seeded composed world, drives one
// workload, checks every answer, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as one JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the serving stack sees; every
// workload reports all of them (README.md defines each per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms.light", "ms"},
	{"p50_ms.heavy", "ms"},
	{"capacity_rps", "1/s"},
	{"txn_per_s", "1/s"},
	{"cpu_us_per_txn", "us"},
	{"allocs_per_txn", "count"},
	{"heap_mb", "MiB"},
}

// perLayer are the traced run's metrics. A workload that never reaches a
// layer reports its metrics as 0.
var perLayer = []metricDef{
	{"gen.lateness_p50_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"router.self_us.p50", "us"},
	{"router.upstream_us.p50", "us"},
	{"router.upstream_us.p99", "us"},
	{"router.hop_us.p50", "us"},
	{"router.attempts_per_req", "ratio"},
	{"router.failed", "count"},
	{"ms.http.handler_us.p50", "us"},
	{"ms.http.handler_us.p99", "us"},
	{"ms.http.codec_us.p50", "us"},
	{"ms.engine_us.p50", "us"},
	{"ms.engine_us.p99", "us"},
	{"ms.batch_us_per_txn", "us"},
	{"ms.batch.residual_us_per_txn", "us"},
	{"usercache.hit_ratio", "ratio"},
	{"usercache.evictions_per_txn", "ratio"},
	{"hbase.rows_per_batch", "count"},
	{"hbase.visitrows_us_per_row", "us"},
	{"feature.assemble_us_per_row", "us"},
	{"stream.ingest_us.p50", "us"},
	{"stream.ingest_us.p99", "us"},
	{"stream.read_us.p50", "us"},
	{"model.score_us_per_row.gbdt", "us"},
	{"decision.policy_ns_per_row", "ns"},
	{"decision.shadow_scored_ratio", "ratio"},
	{"eventlog.append_us.p50", "us"},
	{"eventlog.append_us.p99", "us"},
	{"eventlog.records_per_fsync", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupRuns = 3

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // stores, event logs and span dumps
	setups   int    // set-ups per run; setup_s is their median
}

// report is what a workload measured and checked.
type report struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string // figures printed in the summary only (see note)
	problems  []string // failed checks; any makes the run incorrect
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// note records a figure for the human summary that is too noisy on a
// small shared host to gate a change by: the tail quantiles.
func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("  %-32s %14.4f %s (summary only)", name, v, unit))
}

func (r *report) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config) (*report, error){
	"wire-mixed":     runWire,
	"batch-cold":     runBatch,
	"ingest-durable": runIngest,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: wire-mixed, batch-cold or ingest-durable")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for stores, logs and span dumps")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = setupRuns
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if cfg.trace {
		cfg.setups = 1
	}
	dir, err := filepath.Abs(cfg.outDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg.outDir = dir
	rep, err := drive(cfg)
	if err != nil {
		return err
	}
	return emit(os.Stdout, cfg, rep)
}

// emit prints the human summary to stderr and the result line to stdout.
func emit(w *os.File, cfg config, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			rep.problem("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s is not finite", d.name)
			v = 0
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	if rep.attempted < 1 {
		rep.problem("no requests attempted")
		rep.attempted = 1
		out.Attempted = 1
	}
	if rep.failed > 0 {
		rep.problem("%d of %d requests failed", rep.failed, rep.attempted)
	}
	out.Correct = len(rep.problems) == 0
	fmt.Fprintf(os.Stderr, "%s seed %d (%s run): attempted %d, succeeded %d, failed %d, fail_frac %.4f\n",
		cfg.workload, cfg.seed, map[bool]string{false: "untraced", true: "traced"}[cfg.trace],
		rep.attempted, rep.attempted-rep.failed, rep.failed, float64(rep.failed)/float64(rep.attempted))
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// logf prints progress to stderr.
func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// workers is the most requests a workload keeps outstanding at once.
func workers() int { return runtime.NumCPU() }

// phaseDur splits the measured seconds.
func phaseDur(cfg config, share float64) time.Duration {
	return time.Duration(cfg.seconds * share * float64(time.Second))
}

// runDir makes a fresh directory for one set-up's stores and logs.
func runDir(cfg config, i int) (string, error) {
	dir := filepath.Join(cfg.outDir, "work", fmt.Sprintf("%s-%d-%d", strings.ReplaceAll(cfg.workload, "/", "_"), os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
