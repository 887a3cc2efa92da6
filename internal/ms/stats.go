package ms

import (
	"fmt"

	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/ms/usercache"
	"titant/internal/telemetry"
)

// Stats is the typed GET /v1/stats snapshot. One engine builds it
// (Server.Stats); the sharded engine and the wire router fold many of
// them with Merge; /metrics renders the same values. Optional sections
// are nil when their subsystem is off.
type Stats struct {
	Scored       int64                    `json:"scored"`
	Alerted      int64                    `json:"alerted"`
	P50US        int64                    `json:"p50_us"`
	P99US        int64                    `json:"p99_us"`
	MaxUS        int64                    `json:"max_us"`
	Version      string                   `json:"version"`
	VersionMixed bool                     `json:"version_mixed,omitempty"`
	Shards       int                      `json:"shards"`
	LatencyHist  telemetry.HistSnapshot   `json:"latency_hist"`
	Ingested     *int64                   `json:"ingested,omitempty"`
	Endpoints    map[string]EndpointStats `json:"endpoints,omitempty"`
	UserCache    *usercache.Stats         `json:"user_cache,omitempty"`
	Policy       *PolicySection           `json:"policy,omitempty"`
	Admission    *AdmissionStats          `json:"admission,omitempty"`
	Shadow       *ShadowSection           `json:"shadow,omitempty"`
	EventLog     *EventLogSection         `json:"eventlog,omitempty"`
	Drift        *DriftSection            `json:"drift,omitempty"`
}

// EndpointStats is one HTTP endpoint's request latency: percentiles
// plus the raw histogram they are read from.
type EndpointStats struct {
	Count int64                  `json:"count"`
	P50US int64                  `json:"p50_us"`
	P99US int64                  `json:"p99_us"`
	MaxUS int64                  `json:"max_us"`
	Hist  telemetry.HistSnapshot `json:"hist"`
}

// PolicySection is the active policy's version and action counters.
type PolicySection struct {
	Version string `json:"version"`
	DecisionStats
}

// ShadowSection is the champion/challenger comparison.
type ShadowSection struct {
	ChallengerVersion string `json:"challenger_version"`
	decision.ShadowStats
	QueueDepth int `json:"queue_depth"`
}

// EventLogSection is the durable log's counters plus the engine's
// startup replay and append-failure counts.
type EventLogSection struct {
	eventlog.Stats
	Replayed     int64 `json:"replayed"`
	AppendErrors int64 `json:"append_errors"`
}

// DriftSection is the score drift monitor; Alert is set when any series
// alerts.
type DriftSection struct {
	Alert  bool                  `json:"alert"`
	Series []decision.DriftStats `json:"series"`
}

// Merge folds per-shard snapshots into one fleet view. These are the
// fleet merge rules:
//
//   - counters sum, and so does Shards, so a ring of sharded engines
//     reports its true width;
//   - histograms sum bucket by bucket and p50/p99/max are recomputed
//     from the sum, because percentiles do not merge; a histogram whose
//     shape disagrees with the others is an error, never merged;
//   - drift PSI/KS, consumer lag, fsync age and the per-log offsets take
//     the worst shard; drift series merge by name and alerts OR;
//   - shadow agreement and mean divergence are recomputed from the sums;
//   - admission callers take the largest shard: the same callers reach
//     every shard, so their counts do not add;
//   - versions come from the first snapshot that carries them, and
//     VersionMixed is set when another bundle version differs.
//
// A section present on any snapshot merges over the snapshots that
// carry it.
func Merge(parts []Stats) (Stats, error) {
	var out Stats
	if len(parts) > 0 {
		out.Version = parts[0].Version
	}
	for i := range parts {
		p := &parts[i]
		if err := out.add(p); err != nil {
			return Stats{}, fmt.Errorf("ms: stats %d: %w", i, err)
		}
		out.VersionMixed = out.VersionMixed || p.VersionMixed || p.Version != out.Version
	}
	out.derive()
	return out, nil
}

// add sums one snapshot's raw fields into st; derive recomputes the
// values that depend on the sums.
func (st *Stats) add(o *Stats) error {
	if err := st.LatencyHist.Add(o.LatencyHist); err != nil {
		return fmt.Errorf("latency_hist: %w", err)
	}
	for name, e := range o.Endpoints {
		if st.Endpoints == nil {
			st.Endpoints = map[string]EndpointStats{}
		}
		acc := st.Endpoints[name]
		if err := acc.Hist.Add(e.Hist); err != nil {
			return fmt.Errorf("endpoint %s: %w", name, err)
		}
		st.Endpoints[name] = acc
	}
	st.Scored += o.Scored
	st.Alerted += o.Alerted
	st.Shards += o.Shards
	if o.Ingested != nil {
		n := *o.Ingested
		if st.Ingested != nil {
			n += *st.Ingested
		}
		st.Ingested = &n
	}
	if c := o.UserCache; c != nil {
		if st.UserCache == nil {
			st.UserCache = &usercache.Stats{}
		}
		a := st.UserCache
		a.Hits += c.Hits
		a.Misses += c.Misses
		a.Collapsed += c.Collapsed
		a.Evictions += c.Evictions
		a.Invalidations += c.Invalidations
		a.Negatives += c.Negatives
		a.Size += c.Size
		a.Capacity += c.Capacity
	}
	if p := o.Policy; p != nil {
		if st.Policy == nil {
			st.Policy = &PolicySection{Version: p.Version}
		}
		a := st.Policy
		a.Decided += p.Decided
		a.Approved += p.Approved
		a.Challenged += p.Challenged
		a.Denied += p.Denied
		a.RuleOverrides += p.RuleOverrides
	}
	if ad := o.Admission; ad != nil {
		if st.Admission == nil {
			st.Admission = &AdmissionStats{}
		}
		a := st.Admission
		a.Admitted += ad.Admitted
		a.ShedQuota += ad.ShedQuota
		a.ShedInflight += ad.ShedInflight
		a.Inflight += ad.Inflight
		a.MaxInflight += ad.MaxInflight
		a.Rate += ad.Rate
		a.Burst += ad.Burst
		a.Callers = max(a.Callers, ad.Callers)
	}
	if sh := o.Shadow; sh != nil {
		if st.Shadow == nil {
			st.Shadow = &ShadowSection{ChallengerVersion: sh.ChallengerVersion}
		}
		a := st.Shadow
		if n := a.Scored + sh.Scored; n > 0 {
			a.MeanAbsDiff = (a.MeanAbsDiff*float64(a.Scored) + sh.MeanAbsDiff*float64(sh.Scored)) / float64(n)
		}
		a.Scored += sh.Scored
		a.Dropped += sh.Dropped
		a.Errors += sh.Errors
		a.Agreed += sh.Agreed
		a.Flipped += sh.Flipped
		a.QueueDepth += sh.QueueDepth
	}
	if el := o.EventLog; el != nil {
		if st.EventLog == nil {
			st.EventLog = &EventLogSection{}
		}
		a := st.EventLog
		a.Appended += el.Appended
		a.Fsyncs += el.Fsyncs
		a.Bytes += el.Bytes
		a.Segments += el.Segments
		a.UnsyncedBytes += el.UnsyncedBytes
		a.Replayed += el.Replayed
		a.AppendErrors += el.AppendErrors
		a.FirstOffset = max(a.FirstOffset, el.FirstOffset)
		a.NextOffset = max(a.NextOffset, el.NextOffset)
		a.SnapshotEnd = max(a.SnapshotEnd, el.SnapshotEnd)
		a.MaxLag = max(a.MaxLag, el.MaxLag)
		a.LastFsyncAge = max(a.LastFsyncAge, el.LastFsyncAge)
	}
	if d := o.Drift; d != nil {
		if st.Drift == nil {
			st.Drift = &DriftSection{Series: []decision.DriftStats{}}
		}
		st.Drift.Alert = st.Drift.Alert || d.Alert
		for _, s := range d.Series {
			st.Drift.addSeries(s)
		}
	}
	return nil
}

// addSeries folds one drift series into the series of the same name.
func (d *DriftSection) addSeries(s decision.DriftStats) {
	for i := range d.Series {
		a := &d.Series[i]
		if a.Name != s.Name {
			continue
		}
		a.BaselineCount += s.BaselineCount
		a.LiveCount += s.LiveCount
		a.PSI = max(a.PSI, s.PSI)
		a.KS = max(a.KS, s.KS)
		a.Alert = a.Alert || s.Alert
		return
	}
	d.Series = append(d.Series, s)
}

// derive recomputes the values that are functions of summed fields:
// percentiles from histograms and the shadow agreement ratio.
func (st *Stats) derive() {
	st.P50US, st.P99US, st.MaxUS = quantilesUS(st.LatencyHist)
	for name, e := range st.Endpoints {
		st.Endpoints[name] = endpointStats(e.Hist)
	}
	if sh := st.Shadow; sh != nil {
		sh.Agreement = 1
		if sh.Scored > 0 {
			sh.Agreement = float64(sh.Agreed) / float64(sh.Scored)
		}
	}
}

func quantilesUS(h telemetry.HistSnapshot) (p50, p99, maxUS int64) {
	return h.Quantile(0.50).Microseconds(), h.Quantile(0.99).Microseconds(), h.Max.Microseconds()
}

func endpointStats(h telemetry.HistSnapshot) EndpointStats {
	e := EndpointStats{Count: h.Total(), Hist: h}
	e.P50US, e.P99US, e.MaxUS = quantilesUS(h)
	return e
}

// setFrontDoor fills the sections owned by the engine that terminates
// HTTP: the live window's ingest count, the ingest and decide endpoint
// histograms, and admission. Inside a sharded engine these live at the
// front door, not on the shards; the stream store in particular is
// shared, so summing per-shard counts would count every ingest N times.
func (st *Stats) setFrontDoor(stream, policy bool, ingested int64, ingestHist, decideHist *telemetry.Histogram, adm *admission) {
	if stream || policy {
		st.Endpoints = map[string]EndpointStats{}
	}
	if stream {
		st.Ingested = &ingested
		st.Endpoints["ingest"] = endpointStats(ingestHist.Raw())
	}
	if policy {
		st.Endpoints["decide"] = endpointStats(decideHist.Raw())
	}
	if adm != nil {
		as := adm.stats()
		st.Admission = &as
	}
}

// shardStats snapshots the sections an engine owns even as one shard of
// a ring: scoring, user cache, policy, shadow, event log and drift.
func (s *Server) shardStats() Stats {
	st := Stats{
		Scored:      s.scored.Load(),
		Alerted:     s.alerted.Load(),
		Version:     s.BundleVersion(),
		Shards:      1,
		LatencyHist: s.hist.Raw(),
	}
	if s.UserCacheEnabled() {
		cs := s.UserCacheStats()
		st.UserCache = &cs
	}
	if s.PolicyEnabled() {
		st.Policy = &PolicySection{Version: s.PolicyVersion(), DecisionStats: s.DecisionStats()}
	}
	if s.ShadowEnabled() {
		st.Shadow = &ShadowSection{ChallengerVersion: s.ShadowVersion(), ShadowStats: s.ShadowStats(), QueueDepth: s.ShadowQueueDepth()}
	}
	if s.EventLogEnabled() {
		es := s.EventLogStats()
		// Per-consumer offsets are log coordinates for the offline
		// inspector; max_consumer_lag summarises them here.
		es.Consumers = nil
		st.EventLog = &EventLogSection{Stats: es, Replayed: s.EventLogReplayed(), AppendErrors: s.elogErrs.Load()}
	}
	if series := s.DriftStats(); series != nil {
		d := &DriftSection{Series: series}
		for i := range series {
			d.Alert = d.Alert || series[i].Alert
		}
		st.Drift = d
	}
	st.derive()
	return st
}

// Stats snapshots the engine for GET /v1/stats and /metrics.
func (s *Server) Stats() Stats {
	st := s.shardStats()
	st.setFrontDoor(s.StreamEnabled(), s.PolicyEnabled(), s.Ingested(), s.ingestHist, s.decideHist, s.adm)
	return st
}

// Stats merges the shards' snapshots with Merge, then adds the sections
// the sharded front door owns (see setFrontDoor).
func (se *ShardedEngine) Stats() Stats {
	parts := make([]Stats, len(se.shards))
	for i, s := range se.shards {
		parts[i] = s.shardStats()
	}
	st, err := Merge(parts)
	if err != nil {
		// Every shard is built from one option set, so their histograms
		// share bounds; a mismatch is a bug.
		panic(err)
	}
	st.setFrontDoor(se.StreamEnabled(), se.PolicyEnabled(), se.Ingested(), se.ingestHist, se.decideHist, se.adm)
	return st
}
