package telemetry

import (
	"sync"
	"time"
)

// Stage names one segment of a request's hot path. Engine stages map
// the phases of runOne/runBatch (admission gate, user fetch through the
// cache, feature assembly including the streaming aggregates, the
// member-model score + combine pass, the policy decision, the shadow
// enqueue); router stages map the wire tier (routing an attempt, retry
// backoff, the hedge leg, scatter/gather assembly).
type Stage uint8

const (
	StageAdmit Stage = iota
	StageFetch
	StageAssemble
	StageScore
	StageDecide
	StageShadow
	StageRoute
	StageRetry
	StageHedge
	StageGather
	// NumStages sizes the fixed per-request span buffer; it is small on
	// purpose — spans live in stack arrays, never on the heap.
	NumStages
)

var stageNames = [NumStages]string{
	"admit", "fetch", "assemble", "score", "decide", "shadow",
	"route", "retry", "hedge", "gather",
}

// String returns the stage's label value in metrics and trace dumps.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Spans is a request's fixed-size span buffer: one duration per stage,
// zero for stages the request did not pass through. It lives on the
// caller's stack — recording a traced batch allocates nothing.
type Spans [NumStages]time.Duration

// Exemplar is one slow-request sample kept in an endpoint's ring: the
// trace ID to grep for, the total latency, and the per-stage split that
// says where the budget went.
type Exemplar struct {
	Trace TraceID
	Total time.Duration
	Spans Spans
}

// slowRing keeps the K slowest exemplars seen on one endpoint. The fast
// path is a single atomic-free threshold check under a mutex only when
// the sample might displace an entry; entries are preallocated and
// overwritten in place, so steady-state recording allocates nothing.
type slowRing struct {
	mu      sync.Mutex
	entries []Exemplar // preallocated, len == cap == k
	n       int        // occupied prefix of entries
	minIdx  int        // index of the smallest Total among entries[:n]
}

func newSlowRing(k int) *slowRing {
	if k < 1 {
		k = 1
	}
	return &slowRing{entries: make([]Exemplar, k)}
}

// offer records the sample if it ranks among the K slowest so far.
func (r *slowRing) offer(id TraceID, total time.Duration, spans *Spans) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var slot int
	switch {
	case r.n < len(r.entries):
		slot = r.n
		r.n++
	case total > r.entries[r.minIdx].Total:
		slot = r.minIdx
	default:
		return
	}
	e := &r.entries[slot]
	e.Trace, e.Total, e.Spans = id, total, *spans
	r.minIdx = 0
	for i := 1; i < r.n; i++ {
		if r.entries[i].Total < r.entries[r.minIdx].Total {
			r.minIdx = i
		}
	}
}

// snapshot copies the ring's occupied entries.
func (r *slowRing) snapshot() []Exemplar {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Exemplar, r.n)
	copy(out, r.entries[:r.n])
	return out
}

// EndpointTrack aggregates one endpoint's spans: a per-stage histogram
// plus the slow-exemplar ring. Observe is the only hot-path entry and
// does not allocate.
type EndpointTrack struct {
	name   string
	stages [NumStages]*Histogram
	slow   *slowRing
}

// Observe folds one request's spans into the endpoint's stage
// histograms and offers it to the exemplar ring. spans is read, not
// retained. A zero-duration stage means "not traversed" and is skipped,
// so e.g. ingest requests don't pollute the score stage histograms.
func (e *EndpointTrack) Observe(id TraceID, total time.Duration, spans *Spans) {
	for i := range spans {
		if spans[i] > 0 {
			e.stages[i].Record(spans[i])
		}
	}
	e.slow.offer(id, total, spans)
}

// StageHistogram exposes one stage's histogram (for /metrics).
func (e *EndpointTrack) StageHistogram(s Stage) *Histogram { return e.stages[s] }

// Tracker is one process tier's span aggregation: a fixed set of
// endpoint tracks created up front, so the hot path takes a pointer,
// not a map lookup under a lock.
type Tracker struct {
	byName map[string]*EndpointTrack
	order  []string
}

// DefaultExemplars is how many slow exemplars each endpoint retains.
const DefaultExemplars = 8

// NewTracker builds a tracker over the named endpoints, each keeping
// the k slowest exemplars (k <= 0 means DefaultExemplars).
func NewTracker(endpoints []string, k int) *Tracker {
	if k <= 0 {
		k = DefaultExemplars
	}
	t := &Tracker{byName: make(map[string]*EndpointTrack, len(endpoints))}
	for _, name := range endpoints {
		if _, dup := t.byName[name]; dup {
			continue
		}
		e := &EndpointTrack{name: name, slow: newSlowRing(k)}
		for i := range e.stages {
			e.stages[i] = NewHistogram(nil)
		}
		t.byName[name] = e
		t.order = append(t.order, name)
	}
	return t
}

// Endpoint returns the named track (nil if the tracker was not built
// with it — callers must treat nil as "tracing off" and skip).
func (t *Tracker) Endpoint(name string) *EndpointTrack { return t.byName[name] }

// Endpoints returns the tracked endpoint names in construction order.
func (t *Tracker) Endpoints() []string { return t.order }

// TraceBody renders one or more trackers as the GET /v1/debug/trace
// JSON body: per endpoint, each traversed stage's count/quantiles and
// the slowest exemplar traces (merged and re-ranked across trackers, so
// a sharded engine reports one fleet-wide top-K per endpoint).
func TraceBody(trackers ...*Tracker) map[string]interface{} {
	endpoints := map[string]interface{}{}
	var order []string
	for _, tr := range trackers {
		if tr == nil {
			continue
		}
		for _, name := range tr.order {
			if _, seen := endpoints[name]; !seen {
				order = append(order, name)
				endpoints[name] = nil
			}
		}
	}
	for _, name := range order {
		var tracks []*EndpointTrack
		for _, tr := range trackers {
			if tr == nil {
				continue
			}
			if e := tr.byName[name]; e != nil {
				tracks = append(tracks, e)
			}
		}
		endpoints[name] = endpointTraceBody(tracks)
	}
	return map[string]interface{}{"endpoints": endpoints}
}

func endpointTraceBody(tracks []*EndpointTrack) map[string]interface{} {
	stages := map[string]interface{}{}
	for s := Stage(0); s < NumStages; s++ {
		var sum HistSnapshot
		for _, e := range tracks {
			// Every stage histogram has the default bounds, so Add
			// cannot refuse one.
			_ = sum.Add(e.stages[s].Raw())
		}
		total := sum.Total()
		if total == 0 {
			continue
		}
		stages[s.String()] = map[string]interface{}{
			"count":  total,
			"p50_us": sum.Quantile(0.50).Microseconds(),
			"p99_us": sum.Quantile(0.99).Microseconds(),
			"max_us": sum.Max.Microseconds(),
		}
	}
	var all []Exemplar
	k := 0
	for _, e := range tracks {
		all = append(all, e.slow.snapshot()...)
		if len(e.slow.entries) > k {
			k = len(e.slow.entries)
		}
	}
	// Selection sort of the top k: k is small and this path is cold.
	if len(all) > 1 {
		for i := 0; i < len(all)-1 && i < k; i++ {
			best := i
			for j := i + 1; j < len(all); j++ {
				if all[j].Total > all[best].Total {
					best = j
				}
			}
			all[i], all[best] = all[best], all[i]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	slowest := make([]map[string]interface{}, 0, len(all))
	for i := range all {
		e := &all[i]
		spans := map[string]int64{}
		for s := Stage(0); s < NumStages; s++ {
			if e.Spans[s] > 0 {
				spans[s.String()] = e.Spans[s].Microseconds()
			}
		}
		slowest = append(slowest, map[string]interface{}{
			"trace_id": e.Trace.String(),
			"total_us": e.Total.Microseconds(),
			"spans_us": spans,
		})
	}
	return map[string]interface{}{"stages": stages, "slowest": slowest}
}
