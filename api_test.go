package titant_test

import (
	"context"
	"testing"

	"titant"
)

// TestPublicAPIQuickstart exercises the facade end to end on a tiny world:
// generate, slice, embed, train, evaluate, deploy, serve.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := titant.DefaultWorldConfig()
	cfg.Users = 800
	cfg.Communities = 8
	cfg.Cities = 20
	cfg.FraudsterFrac = 0.025
	world := titant.Generate(cfg)

	ds, err := world.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := titant.DefaultOptions()
	opts.GBDT.Trees = 40
	opts.LR.Iterations = 5
	opts.DW.WalksPerNode = 3
	opts.S2V.Epochs = 2

	emb := titant.LearnEmbeddings(ds, opts)
	res := titant.TrainEval(world.Users, ds, titant.FeatBasicDW, titant.DetGBDT, emb, opts)
	if res.F1 < 0 || res.F1 > 1 {
		t.Fatalf("F1 = %v", res.F1)
	}

	clf, emb2, threshold, err := titant.TrainForServing(world.Users, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := titant.OpenFeatureTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	bundle, err := titant.Deploy(world.Users, ds, emb2, clf, threshold, opts, tab, "v1")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := titant.NewEngine(tab, bundle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	v, err := srv.Score(context.Background(), &ds.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Score < 0 || v.Score > 1.5 {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestPublicAPIStreaming exercises the streaming serving path through the
// facade: build a live window from the reference days, score against it,
// and keep it current with observed traffic.
func TestPublicAPIStreaming(t *testing.T) {
	cfg := titant.DefaultWorldConfig()
	cfg.Users = 600
	cfg.Communities = 6
	cfg.Cities = 16
	world := titant.Generate(cfg)
	ds, err := world.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := titant.DefaultOptions()
	opts.GBDT.Trees = 30
	opts.DW.WalksPerNode = 2

	clf, emb, threshold, err := titant.TrainForServing(world.Users, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := titant.OpenFeatureTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	bundle, err := titant.Deploy(world.Users, ds, emb, clf, threshold, opts, tab, "v1")
	if err != nil {
		t.Fatal(err)
	}

	st := titant.NewStreamStore(
		titant.WithStreamShards(8),
		titant.WithStreamCities(opts.Cities))
	st.IngestBatch(ds.Network) // warm the window from the 90-day reference days
	eng, err := titant.NewEngine(tab, bundle, titant.WithStreamAggregates(st))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range ds.Test[:20] {
		tx := &ds.Test[i]
		v, err := eng.Score(ctx, tx)
		if err != nil {
			t.Fatal(err)
		}
		if v.Score < 0 || v.Score > 1.5 {
			t.Fatalf("verdict = %+v", v)
		}
		if err := eng.Ingest(tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Ingested(); got != int64(len(ds.Network)+20) {
		t.Fatalf("ingested = %d, want %d", got, len(ds.Network)+20)
	}
}
