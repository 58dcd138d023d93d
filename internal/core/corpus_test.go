package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// corpusWorld builds a random-ish multi-episode dataset with enough episodes
// and adopters that worker sharding, walks and global sampling all engage.
func corpusWorld(t *testing.T) (*graph.Graph, *actionlog.Log) {
	t.Helper()
	const n = 40
	r := rng.New(271)
	b := graph.NewBuilder(n)
	for i := 0; i < 200; i++ {
		u, v := r.Int31n(n), r.Int31n(n)
		if u != v {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	var actions []actionlog.Action
	for it := int32(0); it < 50; it++ {
		for u := int32(0); u < n; u++ {
			if r.Bernoulli(0.25) {
				actions = append(actions, actionlog.Action{User: u, Item: it, Time: r.Float64()})
			}
		}
	}
	l, err := actionlog.FromActions(n, actions)
	if err != nil {
		t.Fatal(err)
	}
	return g, l
}

// TestCorpusDeterminismAcrossWorkers is the tentpole acceptance test: the
// same seed yields a byte-identical Corpus no matter how many goroutines
// generated it, and the caller's RNG advances identically.
func TestCorpusDeterminismAcrossWorkers(t *testing.T) {
	g, l := corpusWorld(t)
	for _, firstOrder := range []bool{false, true} {
		cfg := mustCfg(t, Config{ContextLength: 20, Alpha: 0.4, Seed: 12, FirstOrderOnly: firstOrder})
		gen := func(workers int) (*Corpus, uint64) {
			cfg := cfg
			cfg.CorpusWorkers = workers
			r := rng.New(99)
			c := GenerateCorpus(g, l, cfg, r)
			return c, r.Uint64()
		}
		ref, refNext := gen(1)
		if len(ref.Tuples) == 0 {
			t.Fatal("reference corpus is empty")
		}
		for _, workers := range []int{2, 3, 8} {
			got, gotNext := gen(workers)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("firstOrder=%t: corpus at workers=%d differs from workers=1 (%d vs %d tuples)",
					firstOrder, workers, len(got.Tuples), len(ref.Tuples))
			}
			if gotNext != refNext {
				t.Fatalf("firstOrder=%t: caller RNG diverged at workers=%d", firstOrder, workers)
			}
		}
	}
}

// TestGlobalContextExactLength is the C_2 under-fill regression test: with
// α=0 every context is pure global samples, and exact exclusion sampling
// must deliver exactly ContextLength entries per tuple — the old
// resample-once scheme skipped double collisions, leaving short contexts on
// small episodes.
func TestGlobalContextExactLength(t *testing.T) {
	// Two-adopter episodes maximize the collision rate (n=2 means every
	// uniform draw over the episode hits the center with p=1/2).
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var actions []actionlog.Action
	for it := int32(0); it < 20; it++ {
		u := (it % 2) * 2
		actions = append(actions,
			actionlog.Action{User: u, Item: it, Time: 1},
			actionlog.Action{User: u + 1, Item: it, Time: 2},
		)
	}
	l, err := actionlog.FromActions(4, actions)
	if err != nil {
		t.Fatal(err)
	}
	const L = 15
	for seed := uint64(0); seed < 20; seed++ {
		cfg := mustCfg(t, Config{ContextLength: L, Alpha: 0, Seed: seed})
		corpus := GenerateCorpus(g, l, cfg, rng.New(seed))
		if len(corpus.Tuples) != 40 {
			t.Fatalf("seed %d: tuples = %d, want 40", seed, len(corpus.Tuples))
		}
		for _, tu := range corpus.Tuples {
			if len(tu.Context) != L {
				t.Fatalf("seed %d: center %d context has %d entries, want exactly %d",
					seed, tu.Center, len(tu.Context), L)
			}
			for _, v := range tu.Context {
				if v == tu.Center {
					t.Fatalf("seed %d: center %d sampled itself", seed, tu.Center)
				}
			}
		}
	}
}

// TestMixedContextGlobalPortionExact checks the same exactness under a mixed
// α: the global portion contributes exactly L - round(L·α) entries, so a
// center whose local walk fills completely has a full-length context.
func TestMixedContextGlobalPortionExact(t *testing.T) {
	g, l := chainData(t, 4)
	cfg := mustCfg(t, Config{Alpha: 0.5, ContextLength: 20})
	corpus := GenerateCorpus(g, l, cfg, rng.New(3))
	for _, tu := range corpus.Tuples {
		// Non-sink centers walk locally without running dry; with exact C_2
		// sampling their contexts are exactly L. The sink (user 3) has no
		// successors, so it gets exactly the 10 global entries.
		want := 20
		if tu.Center == 3 {
			want = 10
		}
		if len(tu.Context) != want {
			t.Fatalf("center %d context has %d entries, want %d", tu.Center, len(tu.Context), want)
		}
	}
}

// TestResumeAcrossCorpusWorkers proves CorpusWorkers is a pure throughput
// knob: a checkpoint written under one worker count resumes — bitwise
// identically — under another.
func TestResumeAcrossCorpusWorkers(t *testing.T) {
	g, l := faultData(t, 40)
	dir := t.TempDir()
	cfg := Config{
		Dim: 8, Iterations: 6, Seed: 17, Workers: 1, ContextLength: 10,
		CorpusWorkers:   1,
		CheckpointPath:  filepath.Join(dir, "train.ckpt"),
		CheckpointEvery: 1,
	}

	ref, err := Train(g, l, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run at corpus-workers=1.
	cfg2 := cfg
	cfg2.CheckpointPath = filepath.Join(dir, "killed.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	stop := testAfterEpoch
	testAfterEpoch = func(done int, _ *embed.Store) {
		if done == 3 {
			cancel()
		}
	}
	killed, err := TrainContext(ctx, g, l, cfg2)
	testAfterEpoch = stop
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Canceled || len(killed.Epochs) != 3 {
		t.Fatalf("interrupted run: canceled=%t epochs=%d", killed.Canceled, len(killed.Epochs))
	}

	// Resume at corpus-workers=8: the corpus Resume draws again must be
	// the one the checkpoint trained on.
	cfg2.CorpusWorkers = 8
	resumed, err := Resume(context.Background(), g, l, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StartEpoch != 3 || resumed.Canceled {
		t.Fatalf("resume = start %d canceled %t", resumed.StartEpoch, resumed.Canceled)
	}
	storesEqual(t, ref.Model.Store, resumed.Model.Store)
	for i := range ref.Epochs {
		if ref.Epochs[i].Loss != resumed.Epochs[i].Loss {
			t.Fatalf("epoch %d loss %v vs resumed %v", i, ref.Epochs[i].Loss, resumed.Epochs[i].Loss)
		}
	}
}
