package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"titant/internal/decision"
	"titant/internal/loadgen"
	"titant/internal/rng"
	"titant/internal/synth"
	"titant/internal/txn"
)

// op is one request kind; the order and names follow loadgen.Op.
type op = loadgen.Op

const (
	opScore  = loadgen.OpScore
	opDecide = loadgen.OpDecide
	opIngest = loadgen.OpIngest
)

// item is one scheduled request of an open-loop phase. Every field is
// drawn before the phase starts, so a phase is a pure function of its
// seed and parameters.
type item struct {
	at       time.Duration // scheduled arrival, from phase start
	op       op
	t        txn.Transaction
	scenario decision.Scenario
	replay   bool   // labeled test-window transaction, graded for recall
	body     []byte // v1 JSON request body (wire workloads)
}

// maxReplayShare caps the share of scoring requests that carry labeled
// replay traffic, so the op mix stays the same at every rate: replay
// takes a scoring slot, never an ingest slot.
const maxReplayShare = 0.25

// traffic draws requests over the uploaded user population. It owns a
// cursor into the labeled replay set, so consecutive phases of one run
// replay disjoint slices of it.
type traffic struct {
	r         *rng.RNG
	users     []txn.UserID // rank order: users[0] is the hottest under Zipf
	zipf      *rng.Zipf    // nil: uniform over users
	cities    map[txn.UserID]uint16
	day       txn.Day
	nextID    txn.TxnID
	mix       loadgen.OpMix
	replay    []txn.Transaction
	scenario  map[txn.TxnID]decision.Scenario
	replayPos int
	encode    bool // render each item's v1 request body (see encodeBodies)
}

// backgroundIDBase keeps generated transaction IDs far above the
// composed world's, so the manifest's fraud join never aliases them.
const backgroundIDBase = txn.TxnID(1) << 40

// newTraffic builds a generator over users. A positive zipfS draws users by
// Zipf rank over a seeded permutation of the population; zipfS == 0
// draws them uniformly. replay is played fraud-first (each class
// shuffled), so even a short run grades every scenario kind.
func newTraffic(seed uint64, users []txn.User, zipfS float64, mix loadgen.OpMix, day txn.Day,
	replay []txn.Transaction, man *synth.Manifest) *traffic {
	r := rng.New(seed)
	ids := make([]txn.UserID, len(users))
	cities := make(map[txn.UserID]uint16, len(users))
	for i, p := range r.Split(1).Perm(len(users)) {
		ids[i] = users[p].ID
		cities[users[p].ID] = users[p].HomeCity
	}
	tr := &traffic{
		r: r.Split(2), users: ids, cities: cities, day: day,
		nextID: backgroundIDBase, mix: mix,
		scenario: map[txn.TxnID]decision.Scenario{},
	}
	if zipfS > 0 {
		tr.zipf = rng.NewZipf(len(ids), zipfS)
	}
	fraudKind := map[txn.TxnID]string{}
	if man != nil {
		fraudKind = man.FraudByTxn()
		for i := range man.Scenarios {
			s := &man.Scenarios[i]
			sc, err := decision.ParseScenario(s.DecisionScenario)
			if err != nil {
				sc = decision.ScenarioDefault
			}
			for _, id := range s.FraudTxns {
				tr.scenario[id] = sc
			}
		}
	}
	var fraud, clean []txn.Transaction
	for _, t := range replay {
		if _, ok := fraudKind[t.ID]; ok {
			fraud = append(fraud, t)
		} else {
			clean = append(clean, t)
		}
	}
	rr := r.Split(3)
	rr.Shuffle(len(fraud), func(i, j int) { fraud[i], fraud[j] = fraud[j], fraud[i] })
	rr.Shuffle(len(clean), func(i, j int) { clean[i], clean[j] = clean[j], clean[i] })
	tr.replay = append(fraud, clean...)
	return tr
}

// user draws one user.
func (tr *traffic) user() txn.UserID {
	if tr.zipf == nil {
		return tr.users[tr.r.Intn(len(tr.users))]
	}
	return tr.users[tr.zipf.Sample(tr.r)]
}

// background draws one transaction between two distinct uploaded users.
func (tr *traffic) background() txn.Transaction {
	from := tr.user()
	to := tr.user()
	for to == from {
		to = tr.user()
	}
	t := txn.Transaction{
		ID:         tr.nextID,
		Day:        tr.day,
		Sec:        int32(tr.r.Intn(86400)),
		From:       from,
		To:         to,
		Amount:     float32(50 + tr.r.Float64()*500),
		TransCity:  tr.cities[from],
		DeviceRisk: float32(0.1 * tr.r.Float64()),
		IPRisk:     float32(0.1 * tr.r.Float64()),
	}
	tr.nextID++
	return t
}

// op draws a request kind from the mix.
func (tr *traffic) op() op {
	u := tr.r.Float64() * (tr.mix.Score + tr.mix.Decide + tr.mix.Ingest)
	switch {
	case u < tr.mix.Score:
		return opScore
	case u < tr.mix.Score+tr.mix.Decide:
		return opDecide
	default:
		return opIngest
	}
}

// phase draws one open-loop phase: Poisson arrivals at rate for d, each
// with an op from the mix, and a transaction that is the next replayed
// one (for at most maxReplayShare of the scoring requests) or a
// background one.
func (tr *traffic) phase(seed uint64, rate float64, d time.Duration) []item {
	arrivals := loadgen.Arrivals(loadgen.Constant{Rate: rate}, d, seed)
	items := make([]item, len(arrivals))
	for i, at := range arrivals {
		it := &items[i]
		it.at = at
		it.op = tr.op()
		if it.op != opIngest && tr.replayPos < len(tr.replay) && tr.r.Float64() < maxReplayShare {
			it.t = tr.replay[tr.replayPos]
			it.scenario = tr.scenario[it.t.ID]
			it.replay = true
			tr.replayPos++
			continue
		}
		it.t = tr.background()
	}
	if tr.encode {
		encodeBodies(items)
	}
	return items
}

// batch draws n background transactions for a batch call.
func (tr *traffic) batch(n int) []txn.Transaction {
	out := make([]txn.Transaction, n)
	for i := range out {
		out[i] = tr.background()
	}
	return out
}

// quantile returns the q-quantile of sorted by the nearest-rank rule:
// the smallest sample with at least q of the samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// samples holds exact per-request measurements in nanoseconds.
type samples []int64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ms and us read a quantile of a sorted sample set in milliseconds and
// microseconds.
func (s samples) ms(q float64) float64 { return float64(quantile(s, q)) / 1e6 }
func (s samples) us(q float64) float64 { return float64(quantile(s, q)) / 1e3 }

func (s samples) String() string {
	return fmt.Sprintf("n=%d p50=%.3fms p99=%.3fms", len(s), s.ms(0.5), s.ms(0.99))
}
