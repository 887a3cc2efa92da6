// Package telemetry is the repo's observability plane: the shared
// lock-free latency histogram behind /v1/stats, /metrics and the load
// harness; request trace IDs minted at the wire tier and propagated in
// context; per-stage hot-path span aggregation with slowest-exemplar
// rings; and the hand-rolled Prometheus text exposition writer, parser
// and linter. Everything here is stdlib-only and allocation-free on the
// recording paths, so the serving tiers can run it unconditionally.
package telemetry

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-size latency histogram with log-spaced buckets:
// recording is a lock-free O(log buckets) search plus two atomic adds,
// and a percentile read walks the bucket array once. It is the one
// histogram shared by the engine (/v1/stats latency sections), the wire
// router (per-shard latency trackers, hedge delay), the load harness
// (report quantiles) and /metrics — identical bounds everywhere, so no
// two surfaces can disagree on a quantile.
//
// Bucket i counts samples d with bounds[i-1] < d <= bounds[i]; the
// final bucket counts everything above the last bound. Percentiles are
// the upper bound of the bucket holding the target rank (clamped to the
// observed maximum): conservative estimates whose resolution is the
// bucket spacing.
type Histogram struct {
	bounds []time.Duration // ascending bucket upper bounds
	counts []atomic.Int64  // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Int64    // total observed nanoseconds (Prometheus _sum)
	max    atomic.Int64
}

// DefaultBounds covers 1µs to 100s on a geometric ×1.25 ladder (~84
// buckets): ~12% worst-case quantile error everywhere on the range, in
// particular fine enough around the SLO gate's 100ms p99 ceiling that a
// 60ms tail is not reported as 100ms (the old 1-2-5 decade ladder did
// exactly that).
func DefaultBounds() []time.Duration {
	var bs []time.Duration
	for b := float64(time.Microsecond); b < float64(100*time.Second); b *= 1.25 {
		bs = append(bs, time.Duration(b))
	}
	return bs
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. Bounds are sanitised (sorted, deduplicated, non-positive
// dropped); an empty set falls back to DefaultBounds.
func NewHistogram(bounds []time.Duration) *Histogram {
	bs := make([]time.Duration, 0, len(bounds))
	for _, b := range bounds {
		if b > 0 {
			bs = append(bs, b)
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	dst := bs[:0]
	for i, b := range bs {
		if i == 0 || b != dst[len(dst)-1] {
			dst = append(dst, b)
		}
	}
	bs = dst
	if len(bs) == 0 {
		bs = DefaultBounds()
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Record adds one sample. Safe for concurrent use; does not allocate.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds (shared, not copied — callers
// must not mutate).
func (h *Histogram) Bounds() []time.Duration { return h.bounds }

// Max returns the largest sample observed so far.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Total returns the number of recorded samples.
func (h *Histogram) Total() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Snapshot copies the bucket counts and returns them with their sum.
func (h *Histogram) Snapshot() ([]int64, int64) {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Quantile reads the p-quantile (0 < p <= 1) from the live histogram.
func (h *Histogram) Quantile(p float64) time.Duration {
	counts, total := h.Snapshot()
	return Quantile(h.bounds, counts, total, h.Max(), p)
}

// Quantile reads the p-quantile (0 < p <= 1) out of a snapshot: the
// upper bound of the bucket containing rank ceil(p·total), clamped to
// the observed maximum. This is the single quantile definition every
// surface uses — the engine's /v1/stats, the router's merged fleet
// view, the load report — so a merged quantile computed from summed
// buckets is bitwise-identical to the whole-population quantile over
// the same samples.
func Quantile(bounds []time.Duration, counts []int64, total int64, max time.Duration, p float64) time.Duration {
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i < len(bounds) && bounds[i] < max {
				return bounds[i]
			}
			return max
		}
	}
	return max
}

// HistSnapshot is a histogram's raw wire form: nanosecond bucket upper
// bounds, per-bucket counts (the last is the overflow bucket), the
// observed maximum and the sample sum. Raw buckets are what make a fleet
// view lossless: shard snapshots sum bucket by bucket and quantiles
// recompute from the sum, where merging per-shard percentiles would be
// meaningless.
type HistSnapshot struct {
	Bounds []time.Duration `json:"bounds_ns"`
	Counts []int64         `json:"counts"`
	Max    time.Duration   `json:"max_ns"`
	Sum    time.Duration   `json:"sum_ns"`
}

// Raw snapshots the histogram. Bounds are shared with the histogram and
// must not be mutated.
func (h *Histogram) Raw() HistSnapshot {
	counts, _ := h.Snapshot()
	return HistSnapshot{Bounds: h.bounds, Counts: counts, Max: h.Max(), Sum: h.Sum()}
}

// Total returns the number of samples in the snapshot.
func (s HistSnapshot) Total() int64 {
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	return total
}

// Quantile reads the p-quantile (0 < p <= 1) out of the snapshot.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	return Quantile(s.Bounds, s.Counts, s.Total(), s.Max, p)
}

// Add sums o into s bucket by bucket; a zero s takes o's shape. It
// refuses, leaving s unchanged, a snapshot whose counts do not fit its
// own bounds or whose bounds differ from s's: buckets of different
// shapes cannot be summed.
func (s *HistSnapshot) Add(o HistSnapshot) error {
	if len(o.Counts) != len(o.Bounds)+1 {
		return fmt.Errorf("telemetry: histogram has %d counts for %d bounds", len(o.Counts), len(o.Bounds))
	}
	if s.Counts == nil {
		s.Bounds, s.Counts = o.Bounds, make([]int64, len(o.Counts))
	} else if !slices.Equal(s.Bounds, o.Bounds) {
		return errors.New("telemetry: histogram bounds differ")
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Sum += o.Sum
	s.Max = max(s.Max, o.Max)
	return nil
}
