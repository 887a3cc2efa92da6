package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"titant/internal/loadgen"
	"titant/internal/rng"
	"titant/internal/txn"
)

func testUsers(n int) []txn.User {
	us := make([]txn.User, n)
	for i := range us {
		us[i] = txn.User{ID: txn.UserID(i), HomeCity: uint16(i % 7)}
	}
	return us
}

func testReplay(n int) []txn.Transaction {
	out := make([]txn.Transaction, n)
	for i := range out {
		out[i] = txn.Transaction{ID: txn.TxnID(i + 1), From: txn.UserID(i % 50), To: txn.UserID(i%50 + 1), Amount: 10}
	}
	return out
}

func TestPhaseIsAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed uint64) []item {
		tr := newTraffic(seed, testUsers(500), wireZipf, loadgen.DefaultOpMix(), 104, testReplay(300), nil)
		tr.encode = true
		return append(tr.phase(seed+seedLight, wireLight, time.Second), tr.phase(seed+seedHeavy, wireHeavy, time.Second)...)
	}
	a, b := draw(7), draw(7)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 drew different workloads (%d vs %d items)", len(a), len(b))
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("seeds 7 and 8 drew the same workload")
	}
	batch := func(seed uint64) []txn.Transaction {
		return newTraffic(seed, testUsers(500), 0, loadgen.OpMix{}, 104, nil, nil).batch(batchSize)
	}
	if !reflect.DeepEqual(batch(3), batch(3)) {
		t.Fatal("seed 3 drew different batches")
	}
}

func TestOpMixHoldsAtBothRates(t *testing.T) {
	for _, tc := range []struct {
		name         string
		mix          loadgen.OpMix
		light, heavy float64
	}{
		{"wire-mixed", loadgen.DefaultOpMix(), wireLight, wireHeavy},
		{"ingest-durable", ingestMix, ingestLight, ingestHeavy},
	} {
		// The replay set is larger than the light phase's scoring slots,
		// the case where a replay-first generator starves ingest.
		tr := newTraffic(1, testUsers(2000), wireZipf, tc.mix, 104, testReplay(5000), nil)
		total := tc.mix.Score + tc.mix.Decide + tc.mix.Ingest
		want := [3]float64{tc.mix.Score / total, tc.mix.Decide / total, tc.mix.Ingest / total}
		for i, rate := range []float64{tc.light, tc.heavy} {
			items := tr.phase(uint64(i), rate, 5*time.Second)
			var got [3]float64
			replayed, scoring := 0, 0
			for _, it := range items {
				got[it.op]++
				if it.op != opIngest {
					scoring++
					if it.replay {
						replayed++
					}
				}
			}
			n := float64(len(items))
			if math.Abs(n-rate*5) > 5*math.Sqrt(rate*5) {
				t.Errorf("%s at %.0f/s: %d arrivals in 5s", tc.name, rate, len(items))
			}
			tol := 4*math.Sqrt(0.25/n) + 0.005
			for op := range got {
				if share := got[op] / n; math.Abs(share-want[op]) > tol {
					t.Errorf("%s at %.0f/s: op %v share %.4f, want %.4f±%.4f", tc.name, rate, op, share, want[op], tol)
				}
			}
			if share := float64(replayed) / float64(max(scoring, 1)); share > maxReplayShare+tol {
				t.Errorf("%s at %.0f/s: replay took %.3f of scoring requests, cap %.2f", tc.name, rate, share, maxReplayShare)
			}
		}
	}
}

// TestQuantileMatchesSortReference checks the nearest-rank quantile
// against its definition: the smallest sample with at least q of all
// samples at or below it.
func TestQuantileMatchesSortReference(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4321} {
		s := make(samples, n)
		for i := range s {
			s[i] = int64(r.Intn(500)) // ties on purpose
		}
		sorted := s.sorted()
		ref := append([]int64(nil), s...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := ref[0]
			for _, x := range ref {
				atOrBelow := 0
				for _, y := range ref {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := quantile(sorted, q); got != want {
				t.Fatalf("n=%d q=%v: quantile %d, reference %d", n, q, got, want)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("quantile of no samples is not 0")
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// with every output check on.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the serving stack six times")
	}
	t.Chdir("..") // the SLO lives at the repository root
	for _, name := range []string{"wire-mixed", "batch-cold", "ingest-durable"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, seconds: 1, trace: traced, outDir: t.TempDir(), setups: 1}
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(rep.problems) > 0 || rep.failed > 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, problems %v", name, traced, rep.attempted, rep.failed, rep.problems)
			}
			defs := endToEnd
			if traced {
				defs = []metricDef{{"trace.coverage", "ratio"}, {"trace.overhead_frac", "ratio"}}
			}
			for _, d := range defs {
				if _, ok := rep.metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				}
			}
		}
	}
}

// TestTraceJoinSelfTimeAndCoverage joins tier spans by trace ID and tier
// order, then checks self times and coverage on a hand-built request.
func TestTraceJoinSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer(1)
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	root := tr.begin("request", at(0))
	tr.end(root, at(100))
	tr.child(root, "bench.client", at(10), at(90))
	tr.record("ms.http", root.Trace, at(40), at(60)) // recorded out of tier order on purpose
	tr.record("router", root.Trace, at(20), at(80))
	tr.record("router.upstream", root.Trace, at(30), at(70))
	tr.record("router", "another-trace", at(20), at(80))
	tr.link(map[string]string{"router": "bench.client", "router.upstream": "router", "ms.http": "router.upstream"})
	byName := map[string]*span{}
	for _, s := range tr.spans {
		if s.Trace == root.Trace {
			byName[s.Name] = s
		}
	}
	byName["ms.engine"] = tr.replayed(byName["ms.http"], "ms.engine", at(500), 10*time.Microsecond)
	for child, parent := range map[string]string{"router": "bench.client", "router.upstream": "router", "ms.http": "router.upstream"} {
		if byName[child].Parent != byName[parent].ID {
			t.Errorf("%s joined to span %d, want %s (%d)", child, byName[child].Parent, parent, byName[parent].ID)
		}
	}
	a := tr.analyze()
	for name, want := range map[string]int64{"request": 20, "bench.client": 20, "router": 20, "router.upstream": 20, "ms.http": 10, "ms.engine": 10} {
		if got := a.self[byName[name].ID]; got != want*1000 {
			t.Errorf("%s self time %dns, want %dus", name, got, want)
		}
	}
	cov, rest := a.coverage()
	if math.Abs(cov-0.6) > 1e-9 {
		t.Errorf("coverage %v, want 0.6 (router, hop, codec and engine self times over 100us)", cov)
	}
	if rest["bench.client"] != 0.02 || rest["request"] != 0.02 {
		t.Errorf("unaccounted self times %v, want bench.client and request at 0.02ms", rest)
	}
}
