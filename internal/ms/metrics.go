package ms

import (
	"strconv"

	"titant/internal/telemetry"
)

// Prometheus exposition for the serving tiers. Every counter on
// GET /v1/stats has a series here, named titant_<subsystem>_<name> with
// labels drawn from {shard, endpoint, stage, member, caller}; latency
// surfaces as native histogram families so dashboards can recompute any
// quantile. Server.MetricsBody renders one engine; the sharded engine
// renders each shard with a shard label plus its fleet-level gates; the
// wire router (internal/router) self-scrapes these pages and re-labels.

// bool01 renders an enablement/alert flag as a 0/1 gauge value.
func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// MetricsBody renders the engine's Prometheus text exposition from the
// same snapshot GET /v1/stats serves.
func (s *Server) MetricsBody() []byte {
	e := telemetry.NewExpo()
	st := s.Stats()
	s.fillMetrics(e, &st)
	frontDoorMetrics(e, &st, s.adm)
	e.Gauge("titant_engine_shards", "engine shard count", 1)
	return e.Bytes()
}

// MetricsBody renders the fleet exposition: every shard's series with a
// shard label, plus the series owned by the sharded front door itself
// (admission, the HTTP endpoint histograms, and the shared stream
// window's ingest counter, which would multiply-count if summed per
// shard).
func (se *ShardedEngine) MetricsBody() []byte {
	e := telemetry.NewExpo()
	for i, s := range se.shards {
		st := s.shardStats()
		s.fillMetrics(e, &st, "shard", strconv.Itoa(i))
	}
	var front Stats
	front.setFrontDoor(se.StreamEnabled(), se.PolicyEnabled(), se.Ingested(), se.ingestHist, se.decideHist, se.adm)
	frontDoorMetrics(e, &front, se.adm)
	e.Gauge("titant_engine_shards", "engine shard count", float64(len(se.shards)))
	return e.Bytes()
}

// fillMetrics emits one engine's shard sections of st (see shardStats)
// and its per-stage span histograms into e under the given extra labels.
func (s *Server) fillMetrics(e *telemetry.Expo, st *Stats, labels ...string) {
	lbl := func(extra ...string) []string {
		return append(append(make([]string, 0, len(labels)+len(extra)), labels...), extra...)
	}

	e.Counter("titant_scoring_scored_total", "transactions scored", float64(st.Scored), labels...)
	e.Counter("titant_scoring_alerted_total", "transactions scored at or above the alert threshold", float64(st.Alerted), labels...)
	histMetric(e, "titant_scoring_latency_seconds", "per-transaction scoring latency", st.LatencyHist, labels...)
	e.Gauge("titant_bundle_info", "active bundle metadata (value is always 1)", 1, lbl("version", st.Version)...)

	// Per-stage hot-path histograms from the span tracker.
	for _, name := range s.tel.Endpoints() {
		et := s.tel.Endpoint(name)
		for stg := telemetry.Stage(0); stg < telemetry.NumStages; stg++ {
			h := et.StageHistogram(stg)
			if h.Total() == 0 {
				continue
			}
			histMetric(e, "titant_stage_latency_seconds", "hot-path stage latency by endpoint",
				h.Raw(), lbl("endpoint", name, "stage", stg.String())...)
		}
	}

	if cs := st.UserCache; cs != nil {
		e.Counter("titant_user_cache_hits_total", "user cache hits", float64(cs.Hits), labels...)
		e.Counter("titant_user_cache_misses_total", "user cache misses", float64(cs.Misses), labels...)
		e.Counter("titant_user_cache_collapsed_total", "concurrent misses collapsed to one load", float64(cs.Collapsed), labels...)
		e.Counter("titant_user_cache_evictions_total", "user cache evictions", float64(cs.Evictions), labels...)
		e.Counter("titant_user_cache_invalidations_total", "user cache invalidations", float64(cs.Invalidations), labels...)
		e.Gauge("titant_user_cache_negatives", "negative (user-not-found) entries held", float64(cs.Negatives), labels...)
		e.Gauge("titant_user_cache_size", "user cache entries held", float64(cs.Size), labels...)
		e.Gauge("titant_user_cache_capacity", "user cache entry capacity", float64(cs.Capacity), labels...)
	}

	if ds := st.Policy; ds != nil {
		e.Gauge("titant_policy_info", "active policy metadata (value is always 1)", 1, lbl("version", ds.Version)...)
		e.Counter("titant_decisions_total", "policy decisions by action", float64(ds.Approved), lbl("action", "approve")...)
		e.Counter("titant_decisions_total", "policy decisions by action", float64(ds.Challenged), lbl("action", "challenge")...)
		e.Counter("titant_decisions_total", "policy decisions by action", float64(ds.Denied), lbl("action", "deny")...)
		e.Counter("titant_decision_rule_overrides_total", "decisions where a rule overrode the model bands", float64(ds.RuleOverrides), labels...)
	}

	if sh := st.Shadow; sh != nil {
		e.Gauge("titant_shadow_info", "challenger bundle metadata (value is always 1)", 1, lbl("version", sh.ChallengerVersion)...)
		e.Counter("titant_shadow_scored_total", "champion/challenger comparisons completed", float64(sh.Scored), labels...)
		e.Counter("titant_shadow_dropped_total", "shadow jobs shed on queue overflow", float64(sh.Dropped), labels...)
		e.Counter("titant_shadow_errors_total", "challenger-side scoring failures", float64(sh.Errors), labels...)
		e.Counter("titant_shadow_agreed_total", "comparisons where champion and challenger agreed", float64(sh.Agreed), labels...)
		e.Counter("titant_shadow_flipped_total", "comparisons where the challenger would flip the verdict", float64(sh.Flipped), labels...)
		e.Gauge("titant_shadow_agreement", "champion/challenger verdict agreement ratio", sh.Agreement, labels...)
		e.Gauge("titant_shadow_mean_divergence", "mean absolute champion-challenger score divergence", sh.MeanAbsDiff, labels...)
		e.Gauge("titant_shadow_queue_depth", "transactions waiting for the shadow worker", float64(sh.QueueDepth), labels...)
	}

	if es := st.EventLog; es != nil {
		e.Counter("titant_eventlog_appended_total", "events appended to the durable log", float64(es.Appended), labels...)
		e.Counter("titant_eventlog_fsyncs_total", "event log fsync calls", float64(es.Fsyncs), labels...)
		e.Counter("titant_eventlog_bytes_total", "bytes appended to the event log", float64(es.Bytes), labels...)
		e.Counter("titant_eventlog_replayed_total", "events replayed at startup recovery", float64(es.Replayed), labels...)
		e.Counter("titant_eventlog_append_errors_total", "event log append failures", float64(es.AppendErrors), labels...)
		e.Gauge("titant_eventlog_segments", "event log segment files on disk", float64(es.Segments), labels...)
		e.Gauge("titant_eventlog_first_offset", "oldest retained event offset", float64(es.FirstOffset), labels...)
		e.Gauge("titant_eventlog_next_offset", "next event offset to be assigned", float64(es.NextOffset), labels...)
		e.Gauge("titant_eventlog_unsynced_bytes", "appended bytes not yet fsynced", float64(es.UnsyncedBytes), labels...)
		e.Gauge("titant_eventlog_last_fsync_age_seconds", "seconds since the last fsync", es.LastFsyncAge, labels...)
		e.Gauge("titant_eventlog_snapshot_end", "offset the newest snapshot covers through", float64(es.SnapshotEnd), labels...)
		e.Gauge("titant_eventlog_max_consumer_lag", "largest consumer offset lag", float64(es.MaxLag), labels...)
	}

	if d := st.Drift; d != nil {
		e.Gauge("titant_drift_alert", "1 when any score series crosses its drift thresholds", bool01(d.Alert), labels...)
		for i := range d.Series {
			sr := &d.Series[i]
			dl := lbl("member", sr.Name)
			e.Counter("titant_drift_baseline_total", "scores frozen into the drift baseline", float64(sr.BaselineCount), dl...)
			e.Counter("titant_drift_live_total", "scores observed into the live drift window", float64(sr.LiveCount), dl...)
			e.Gauge("titant_drift_psi", "population stability index vs the baseline", sr.PSI, dl...)
			e.Gauge("titant_drift_ks", "Kolmogorov-Smirnov distance vs the baseline", sr.KS, dl...)
		}
	}
}

// frontDoorMetrics emits the front-door sections of st (see
// setFrontDoor): the live window's ingest counter, the HTTP endpoint
// histograms and the admission gate, per-caller counters included.
func frontDoorMetrics(e *telemetry.Expo, st *Stats, adm *admission) {
	if st.Ingested != nil {
		e.Counter("titant_ingest_ingested_total", "transactions accepted into the live window", float64(*st.Ingested))
	}
	for _, name := range []string{"ingest", "decide"} {
		if ep, ok := st.Endpoints[name]; ok {
			histMetric(e, "titant_endpoint_latency_seconds", "HTTP request latency by endpoint", ep.Hist, "endpoint", name)
		}
	}
	if adm == nil || st.Admission == nil {
		return
	}
	for _, ca := range adm.callerSnapshot() {
		e.Counter("titant_admission_admitted_total", "transactions admitted by caller", float64(ca.admitted), "caller", ca.name)
		e.Counter("titant_admission_shed_quota_total", "transactions refused by caller quotas", float64(ca.shedQuota), "caller", ca.name)
		e.Counter("titant_admission_shed_inflight_total", "transactions refused by the inflight bound", float64(ca.shedInflight), "caller", ca.name)
	}
	as := st.Admission
	e.Gauge("titant_admission_inflight", "transactions currently inside the engine", float64(as.Inflight))
	e.Gauge("titant_admission_max_inflight", "inflight bound (0: unbounded)", float64(as.MaxInflight))
	e.Gauge("titant_admission_rate", "per-caller sustained quota in tx/s (0: no quota)", as.Rate)
	e.Gauge("titant_admission_burst", "per-caller burst allowance", as.Burst)
	e.Gauge("titant_admission_callers", "distinct callers holding exact quota buckets", float64(as.Callers))
}

// histMetric emits one raw histogram snapshot as a Prometheus histogram.
func histMetric(e *telemetry.Expo, name, help string, h telemetry.HistSnapshot, labels ...string) {
	e.Histogram(name, help, h.Bounds, h.Counts, int64(h.Sum), labels...)
}

// TraceBody renders the engine's GET /v1/debug/trace dump.
func (s *Server) TraceBody() map[string]interface{} {
	return telemetry.TraceBody(s.tel)
}

// TraceBody merges every shard's span tracker into one fleet dump: stage
// histograms sum bucket-wise and the slow-exemplar rings re-rank into a
// fleet-wide top K per endpoint.
func (se *ShardedEngine) TraceBody() map[string]interface{} {
	trackers := make([]*telemetry.Tracker, len(se.shards))
	for i, s := range se.shards {
		trackers[i] = s.tel
	}
	return telemetry.TraceBody(trackers...)
}
