// Command msd is the standalone Model Server daemon: it loads a model
// bundle from disk — a v1 single classifier or a v2 ensemble built by
// `titant train` — and serves the v1 scoring API against an existing
// feature store. Ensemble bundles score through the batch-native runtime
// with per-member scores on /v1/score. Models hot-swap over the wire
// (POST /v1/models with an encoded bundle); the daemon drains in-flight
// requests and exits cleanly on SIGINT/SIGTERM.
//
// Usage:
//
//	msd -bundle bundle.bin -data /var/lib/titant/hbase [-addr :8070] [-workers N] [-strict] [-model-token T]
//	    [-usercache N] [-stream] [-stream-shards N] [-stream-buckets N] [-stream-bucket-secs N]
//	    [-policy default|file.json] [-shadow-bundle file.bin] [-shadow-queue N] [-drift]
//	    [-eventlog DIR] [-eventlog-fsync D] [-eventlog-segment-mb N] [-eventlog-snapshot-every N]
//	    [-pprof ADDR]
//
// The bundle file is produced by the offline pipeline (see cmd/titant
// serve for an all-in-one variant, or core.Deploy + Bundle.Encode in
// library code).
//
// By default the daemon maintains a streaming aggregate window fed by
// POST /v1/ingest. The window starts cold: scoring serves the bundle's
// frozen city table until the window has absorbed a warm-up quota of
// traffic (and, past that, for any city with no in-window activity),
// then tracks live statistics — so a fresh daemon behaves exactly like
// the T+1 path until it has seen enough real traffic to trust.
//
// With -eventlog DIR every accepted ingest is appended to a durable
// segmented log before it mutates the window, and derived state
// (window, drift baselines, shadow meter, negative-cache keys) is
// snapshotted periodically. On startup the daemon loads the newest
// snapshot and replays the log tail, rebuilding the exact pre-crash
// state; inspect or compact a log directory offline with
// `titant logctl`.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/ms"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

func main() {
	bundlePath := flag.String("bundle", "", "path to an encoded model bundle (required)")
	dataDir := flag.String("data", "", "feature store directory (required)")
	addr := flag.String("addr", ":8070", "listen address")
	workers := flag.Int("workers", 0, "batch fan-out width (0 = GOMAXPROCS)")
	strict := flag.Bool("strict", false, "reject transactions naming users absent from the store (404)")
	userCache := flag.Int("usercache", ms.DefaultUserCacheSize, "read-through user cache entries (0 = disabled)")
	token := flag.String("model-token", "", "bearer token guarding POST /v1/models and /v1/policy (empty = open)")
	policySpec := flag.String("policy", "", `decision policy: "default" (derived from the bundle threshold), a policy JSON file path, or "" to disable /v1/decide`)
	shadowPath := flag.String("shadow-bundle", "", "challenger bundle file scored in shadow (empty = no shadow)")
	shadowQueue := flag.Int("shadow-queue", 0, "shadow queue capacity (0 = default)")
	drift := flag.Bool("drift", true, "monitor per-member score drift (PSI/KS) against a deploy-time baseline")
	streaming := flag.Bool("stream", true, "maintain a live aggregate window (POST /v1/ingest)")
	ingestToken := flag.String("ingest-token", "", "bearer token guarding POST /v1/ingest[/batch] (empty = open)")
	streamShards := flag.Int("stream-shards", 0, "stream store lock stripes (0 = default)")
	streamBuckets := flag.Int("stream-buckets", 0, "stream window ring buckets (0 = default, 90)")
	streamBucketSecs := flag.Int64("stream-bucket-secs", 0, "stream bucket width in seconds (0 = default, 1 day)")
	elogDir := flag.String("eventlog", "", "durable event log directory: log-then-apply ingest with crash recovery (empty = disabled)")
	elogFsync := flag.Duration("eventlog-fsync", 0, "event log group-commit fsync interval (0 = default, 50ms)")
	elogSegMB := flag.Int64("eventlog-segment-mb", 0, "event log segment rotation size in MiB (0 = default, 64)")
	elogSnapEvery := flag.Int64("eventlog-snapshot-every", 0, "log events between derived-state snapshots (0 = default, 65536; negative disables)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
	flag.Parse()
	if *bundlePath == "" || *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		bound, err := telemetry.StartPprof(*pprofAddr)
		if err != nil {
			log.Fatalf("msd: pprof: %v", err)
		}
		log.Printf("msd: pprof listening on %s (GET /debug/pprof/)", bound)
	}
	raw, err := os.ReadFile(*bundlePath)
	if err != nil {
		log.Fatalf("msd: read bundle: %v", err)
	}
	bundle, err := ms.DecodeBundle(raw)
	if err != nil {
		log.Fatalf("msd: decode bundle: %v", err)
	}
	logBundle(bundle)
	tab, err := hbase.Open(hbase.Config{Dir: *dataDir})
	if err != nil {
		log.Fatalf("msd: open feature store: %v", err)
	}
	defer tab.Close()

	opts := []ms.Option{
		ms.WithAlert(func(t *txn.Transaction, score float64) {
			log.Printf("ALERT txn=%d score=%.3f from=%d to=%d", t.ID, score, t.From, t.To)
		}),
		ms.WithWorkers(*workers),
		ms.WithModelToken(*token),
		ms.WithIngestToken(*ingestToken),
		ms.WithUserCache(*userCache),
	}
	if *strict {
		opts = append(opts, ms.WithStrictUsers())
	}
	if *policySpec != "" {
		var pol *decision.Policy
		if *policySpec == "default" {
			pol = decision.Default(bundle.Version, bundle.Threshold)
		} else {
			raw, err := os.ReadFile(*policySpec)
			if err != nil {
				log.Fatalf("msd: read policy: %v", err)
			}
			if pol, err = decision.Parse(raw); err != nil {
				log.Fatalf("msd: %v", err)
			}
		}
		opts = append(opts, ms.WithPolicy(pol))
		log.Printf("msd: decision policy %s loaded (POST /v1/decide enabled)", pol.Version)
	}
	if *shadowPath != "" {
		raw, err := os.ReadFile(*shadowPath)
		if err != nil {
			log.Fatalf("msd: read shadow bundle: %v", err)
		}
		challenger, err := ms.DecodeBundle(raw)
		if err != nil {
			log.Fatalf("msd: decode shadow bundle: %v", err)
		}
		opts = append(opts, ms.WithShadow(challenger), ms.WithShadowQueue(*shadowQueue))
		log.Printf("msd: shadow challenger %s (%d member(s))", challenger.Version, challenger.NumMembers())
	}
	if *drift {
		opts = append(opts, ms.WithDriftMonitor(decision.DriftConfig{}))
	}
	if *streaming {
		st := stream.New(
			stream.WithShards(*streamShards),
			stream.WithWindow(*streamBuckets, *streamBucketSecs),
			stream.WithCities(len(bundle.City.Fraud)))
		opts = append(opts, ms.WithStreamAggregates(st))
		log.Printf("msd: live aggregate window: %d buckets x %ds over %d shards (cold start, frozen-table fallback)",
			st.Buckets(), st.BucketSeconds(), st.Shards())
	}
	if *elogDir != "" {
		var eopts []eventlog.Option
		if *elogFsync > 0 {
			eopts = append(eopts, eventlog.WithFsyncInterval(*elogFsync))
		}
		if *elogSegMB > 0 {
			eopts = append(eopts, eventlog.WithSegmentBytes(*elogSegMB<<20))
		}
		opts = append(opts, ms.WithEventLog(*elogDir, eopts...))
		if *elogSnapEvery != 0 {
			opts = append(opts, ms.WithSnapshotEvery(*elogSnapEvery))
		}
	}
	srv, err := ms.New(tab, bundle, opts...)
	if err != nil {
		log.Fatalf("msd: %v", err)
	}
	defer srv.Close()
	if *elogDir != "" {
		log.Printf("msd: event log %s: replayed %d records, next offset %d",
			*elogDir, srv.EventLogReplayed(), srv.EventLogStats().NextOffset)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("msd: serving %s on %s (model version %s)", *dataDir, *addr, bundle.Version)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("msd: shut down cleanly")
}

// logBundle describes the loaded bundle: one line for a v1 single model,
// member-per-line detail for a v2 ensemble.
func logBundle(b *ms.Bundle) {
	if len(b.Members) == 0 {
		log.Printf("msd: bundle %s: single model, threshold %.4f, embedding dim %d",
			b.Version, b.Threshold, b.EmbeddingDim)
		return
	}
	log.Printf("msd: bundle %s: %d-member ensemble (combiner %s), threshold %.4f, embedding dim %d",
		b.Version, len(b.Members), b.Combine, b.Threshold, b.EmbeddingDim)
	for i := range b.Members {
		m := &b.Members[i]
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		log.Printf("msd:   member %-8s weight %.2f threshold %.4f (%d bytes)",
			m.Name, w, m.Threshold, len(m.ModelBytes))
	}
}
