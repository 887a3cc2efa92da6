package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"titant"
	"titant/internal/core"
	"titant/internal/decision"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/metrics"
	"titant/internal/model"
	"titant/internal/model/lr"
	"titant/internal/ms"
	"titant/internal/synth"
	"titant/internal/txn"
)

// bundleVersion is the deployed model's version; every response must
// carry it (and the policy built from it).
const bundleVersion = "perfbench"

// worldSeed fixes the composed world. The workload seed varies the
// traffic, never the world, so every seed serves the same trained model
// and the recall floors apply to the same detector.
const worldSeed = 1

// stack is one trained and deployed serving world: the composed world
// and its ground truth, the champion (the `titant serve` default: Basic+
// DW features, GBDT), its feature tables, and what the layer replay
// needs to feed the layers the same inputs the engine gets.
type stack struct {
	world   *synth.World
	man     *synth.Manifest
	ds      *txn.Dataset
	opts    core.Options
	clf     model.Classifier
	emb     *core.Embeddings
	thr     float64
	bundle  *ms.Bundle
	policy  *decision.Policy
	shadow  *ms.Bundle // challenger bundle; nil unless asked for
	tables  []*hbase.Table
	users   map[txn.UserID]*txn.User
	replay  []txn.Transaction // labeled test window
	testDay txn.Day
	dir     string
	closers []func()
}

// fastOptions is the reduced training budget `titant loadgen` trains its
// in-process engine with: the serving path is the same, set-up is
// seconds instead of a minute.
func fastOptions() core.Options {
	opts := core.DefaultOptions()
	opts.GBDT.Trees = 40
	opts.LR.Iterations = 5
	opts.DW.WalksPerNode = 3
	opts.S2V.Epochs = 2
	return opts
}

// buildStack composes the world, trains the champion (and, with
// withShadow, an LR challenger on the same features), and uploads every
// user to shards feature tables under dir through the sharded uploader.
func buildStack(dir string, shards int, withShadow bool) (*stack, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = worldSeed
	w, man := synth.Compose(cfg, synth.DefaultScenarioMix())
	ds, err := w.Dataset(1)
	if err != nil {
		return nil, err
	}
	opts := fastOptions()
	clf, emb, thr, err := core.TrainForServing(w.Users, ds, opts)
	if err != nil {
		return nil, err
	}
	s := &stack{world: w, man: man, ds: ds, opts: opts, clf: clf, emb: emb, thr: thr, dir: dir,
		users: make(map[txn.UserID]*txn.User, len(w.Users))}
	for i := range w.Users {
		s.users[w.Users[i].ID] = &w.Users[i]
	}
	cut := txn.Day(txn.NetworkDays + txn.TrainDays)
	s.testDay = cut
	for i := range w.Log {
		if w.Log[i].Day >= cut {
			s.replay = append(s.replay, w.Log[i])
		}
	}
	s.tables = make([]*hbase.Table, shards)
	for i := range s.tables {
		tab, err := titant.OpenFeatureTable(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			s.close()
			return nil, err
		}
		s.tables[i] = tab
		s.closers = append(s.closers, func() { tab.Close() })
	}
	s.bundle, err = core.DeployTo(w.Users, ds, emb, clf, thr, opts, ms.NewShardedUploader(s.tables, 0), bundleVersion)
	if err != nil {
		s.close()
		return nil, err
	}
	s.policy = decision.Default(bundleVersion, thr)
	if withShadow {
		if err := s.trainShadow(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// trainShadow trains the challenger: LR over the champion's training
// matrix, its threshold the best-F1 point on that matrix.
func (s *stack) trainShadow() error {
	m, labels := core.TrainMatrix(s.world.Users, s.ds, core.FeatBasicDW, s.emb, s.opts)
	cfg := s.opts.LR
	cfg.Seed = s.opts.Seed
	ch := lr.Train(m, labels, cfg)
	scores := make([]float64, m.Rows)
	if err := model.ScoreMatrixInto(scores, ch, m); err != nil {
		return err
	}
	_, thr := metrics.BestF1(scores, labels)
	var err error
	s.shadow, err = core.BuildEnsembleBundle(s.ds, s.emb,
		[]ms.EnsembleMember{{Name: "lr", Clf: ch, Weight: 1, Threshold: thr}},
		ms.CombineMean, thr, s.opts, bundleVersion+"-shadow")
	return err
}

// newStream builds a live aggregate window warmed from the reference
// network, as `titant serve` does at boot.
func (s *stack) newStream() *stream.Store {
	st := stream.New(stream.WithCities(s.opts.Cities))
	st.IngestBatch(s.ds.Network)
	return st
}

// engineOptions are the options `titant serve` enables by default — user
// cache, default policy, drift monitor, a warmed live window — with
// admission left off. userCache overrides the cache size when positive.
func (s *stack) engineOptions(userCache int, st *stream.Store) []ms.Option {
	if userCache <= 0 {
		userCache = ms.DefaultUserCacheSize
	}
	return []ms.Option{
		ms.WithUserCache(userCache),
		ms.WithPolicy(s.policy),
		ms.WithDriftMonitor(decision.DriftConfig{}),
		ms.WithStreamAggregates(st),
	}
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	os.RemoveAll(s.dir)
}

// timedSetups builds a fixture n times, keeps the last and closes the
// others, and reports the median build time: set-up is the one phase
// whose cost a run otherwise samples only once.
func timedSetups[F interface{ close() }](n int, build func(i int) (F, error)) (F, float64, error) {
	var keep F
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		f, err := build(i)
		if err != nil {
			return keep, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			f.close()
		} else {
			keep = f
		}
	}
	sort.Float64s(times)
	// Collect the set-ups' garbage (training matrices, discarded
	// fixtures) now, so the first measured phase does not pay for it.
	runtime.GC()
	return keep, times[len(times)/2], nil
}
