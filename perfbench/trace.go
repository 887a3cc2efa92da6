package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/telemetry"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent links a span to the span that caused it. Replay
// marks a span timed in the layer-replay phase, after the traced phase,
// on the same inputs: its duration is the layer's cost for that
// request, its start and end are when the replay ran.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced run in memory; dump writes them
// out when the run ends. A nil *tracer records nothing, which is how
// untraced runs skip every recording call.
type tracer struct {
	epoch  time.Time
	seed   uint64
	traces atomic.Uint64
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []*span
}

func newTracer(seed uint64) *tracer { return &tracer{epoch: time.Now(), seed: seed} }

func (t *tracer) add(s *span) *span {
	s.ID = t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// begin opens a request's root span under a fresh trace ID, in the
// 32-hex form the serving tiers adopt from the X-Trace-Id header.
func (t *tracer) begin(name string, start time.Time) *span {
	if t == nil {
		return nil
	}
	id := fmt.Sprintf("%016x%016x", t.seed|1<<63, t.traces.Add(1))
	return t.add(&span{Name: name, Trace: id, Start: int64(start.Sub(t.epoch))})
}

// end closes a span opened by begin.
func (t *tracer) end(s *span, at time.Time) {
	if t == nil || s == nil {
		return
	}
	s.End = int64(at.Sub(t.epoch))
}

// child records a finished span under parent.
func (t *tracer) child(parent *span, name string, start, end time.Time) *span {
	if t == nil || parent == nil {
		return nil
	}
	return t.add(&span{Parent: parent.ID, Name: name, Trace: parent.Trace,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// replayed records a layer-replay span of duration d under parent.
func (t *tracer) replayed(parent *span, name string, start time.Time, d time.Duration) *span {
	s := t.child(parent, name, start, start.Add(d))
	if s != nil {
		s.Replay = true
	}
	return s
}

// record stores a span seen inside a serving tier, where only the
// trace ID is known; link joins it to its parent once the run is over.
func (t *tracer) record(name, trace string, start, end time.Time) {
	t.add(&span{Parent: -1, Name: name, Trace: trace,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// link resolves the parents of spans recorded inside serving tiers from
// their trace IDs and the tier order: each span's parent is the span of
// the tier above in the same trace that started last at or before it.
// above names, for each tier span name, the span name of the tier above.
func (t *tracer) link(above map[string]string) {
	byTrace := map[string][]*span{}
	for _, s := range t.spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for _, s := range t.spans {
		if s.Parent != -1 {
			continue
		}
		s.Parent = 0
		want := above[s.Name]
		var best *span
		for _, p := range byTrace[s.Trace] {
			if p.Name == want && p.Start <= s.Start && (best == nil || p.Start > best.Start) {
				best = p
			}
		}
		if best != nil {
			s.Parent = best.ID
		}
	}
}

// analysis is a linked span set: children by parent and self times.
type analysis struct {
	spans    []*span
	children map[int64][]*span
	self     map[int64]int64
}

// analyze computes self times: a span's duration minus its children's
// durations (children never overlap in this benchmark: tiers nest,
// attempts are sequential, and replayed layers are timed one by one).
func (t *tracer) analyze() *analysis {
	a := &analysis{spans: t.spans, children: map[int64][]*span{}, self: map[int64]int64{}}
	for _, s := range t.spans {
		if s.Parent > 0 {
			a.children[s.Parent] = append(a.children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		self := s.dur()
		for _, c := range a.children[s.ID] {
			self -= c.dur()
		}
		if self < 0 {
			self = 0
		}
		a.self[s.ID] = self
	}
	return a
}

// selfOf returns the sorted self times of every span named name.
func (a *analysis) selfOf(name string) samples {
	var out samples
	for _, s := range a.spans {
		if s.Name == name {
			out = append(out, a.self[s.ID])
		}
	}
	return out.sorted()
}

// durOf returns the sorted durations of every span named name.
func (a *analysis) durOf(name string) samples {
	var out samples
	for _, s := range a.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out.sorted()
}

// isLayer reports whether a span belongs to a layer of the program, as
// opposed to the request root or the benchmark's own client side.
func isLayer(s *span) bool {
	return s.Parent != 0 && !strings.HasPrefix(s.Name, "bench.")
}

// coverage is the median over requests of the summed self time of the
// request's layer spans divided by its end-to-end time (its root span).
// The rest of each request is the root's and the bench.* spans' self
// time; unaccounted reports those at their medians, in milliseconds.
func (a *analysis) coverage() (float64, map[string]float64) {
	var ratios []float64
	rest := map[string]samples{}
	var walk func(s *span) int64
	walk = func(s *span) int64 {
		var sum int64
		if isLayer(s) {
			sum = a.self[s.ID]
		} else {
			rest[s.Name] = append(rest[s.Name], a.self[s.ID])
		}
		for _, c := range a.children[s.ID] {
			sum += walk(c)
		}
		return sum
	}
	for _, s := range a.spans {
		if s.Parent != 0 || s.Name != "request" || s.dur() <= 0 {
			continue // a tier span that joined no request is not a request
		}
		ratios = append(ratios, float64(walk(s))/float64(s.dur()))
	}
	out := map[string]float64{}
	for name, v := range rest {
		out[name] = v.sorted().ms(0.5)
	}
	if len(ratios) == 0 {
		return 0, out
	}
	sort.Float64s(ratios)
	return ratios[(len(ratios)-1)/2], out
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// liveHandler times a serving tier's handler from outside it while a
// traced phase runs (live set), joined to the request by the X-Trace-Id
// header the tiers forward.
func liveHandler(live *atomic.Pointer[tracer], name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := live.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, r.Header.Get(telemetry.TraceHeader), start, time.Now())
	})
}

// timingTransport is the router's upstream transport in a traced run:
// while a traced phase runs it times every attempt the router makes and
// counts the failed ones.
type timingTransport struct {
	base   http.RoundTripper
	live   *atomic.Pointer[tracer]
	calls  atomic.Int64
	failed atomic.Int64
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.live.Load()
	if t == nil {
		return tt.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	t.record("router.upstream", req.Header.Get(telemetry.TraceHeader), start, time.Now())
	tt.calls.Add(1)
	if err != nil || resp.StatusCode >= 500 {
		tt.failed.Add(1)
	}
	return resp, err
}
