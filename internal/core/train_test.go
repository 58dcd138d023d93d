package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/checkpoint"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
	"inf2vec/internal/vecmath"
)

func TestTrainRejectsBadConfig(t *testing.T) {
	g, l := chainData(t, 1)
	if _, err := Train(g, l, Config{Dim: -1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestTrainRejectsMismatchedUniverse(t *testing.T) {
	g, err := graph.FromEdges(2, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := actionlog.FromActions(5, []actionlog.Action{{User: 4, Item: 0, Time: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(g, l, Config{}); err == nil {
		t.Fatal("graph smaller than user universe accepted")
	}
}

func TestTrainEmptyLogReturnsRandomModel(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := actionlog.FromActions(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(g, l, Config{Dim: 4, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || res.NumTuples != 0 || len(res.Epochs) != 0 {
		t.Fatalf("empty-log result = %+v", res)
	}
}

func TestTrainDeterministicSingleWorker(t *testing.T) {
	g, l := chainData(t, 5)
	cfg := Config{Dim: 8, Iterations: 3, Seed: 42, Workers: 1}
	a, err := Train(g, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 4; u++ {
		va, vb := a.Model.Store.SourceVec(u), b.Model.Store.SourceVec(u)
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("same-seed training diverged at user %d coord %d", u, i)
			}
		}
	}
	if a.Epochs[0].Loss != b.Epochs[0].Loss {
		t.Fatal("same-seed losses differ")
	}
}

func TestTrainLossImproves(t *testing.T) {
	// Two disjoint communities give the objective real headroom: the model
	// must learn that contexts stay within a community, which a random
	// initialization does not reflect. (On fully symmetric fixtures the
	// random init already sits at the entropy floor and the loss cannot
	// move; on degenerate 4-node data aggressive rates oscillate.)
	g, err := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	var actions []actionlog.Action
	for it := int32(0); it < 30; it++ {
		base := int32(0)
		if it%2 == 1 {
			base = 3
		}
		for off := int32(0); off < 3; off++ {
			actions = append(actions, actionlog.Action{User: base + off, Item: it, Time: float64(off)})
		}
	}
	l, err := actionlog.FromActions(6, actions)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(g, l, Config{
		Dim: 10, Iterations: 20, Seed: 7, LearningRate: 0.02, Alpha: 0.5, ContextLength: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the mean of the first and last three epochs: single-epoch
	// losses are noisy on such a tiny corpus.
	head := (res.Epochs[0].Loss + res.Epochs[1].Loss + res.Epochs[2].Loss) / 3
	n := len(res.Epochs)
	tail := (res.Epochs[n-1].Loss + res.Epochs[n-2].Loss + res.Epochs[n-3].Loss) / 3
	if tail <= head {
		t.Fatalf("loss did not improve: first epochs %v, last epochs %v", head, tail)
	}
}

// TestTrainLearnsInfluenceDirection plants an asymmetric influence pattern
// and checks the paper's core claim: the learned x(u,v) ranks true influence
// pairs above reversed and absent ones.
func TestTrainLearnsInfluenceDirection(t *testing.T) {
	// 0 -> 1 (always fires), 2 and 3 are bystanders adopting other items.
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var actions []actionlog.Action
	for it := int32(0); it < 40; it++ {
		actions = append(actions,
			actionlog.Action{User: 0, Item: it, Time: 1},
			actionlog.Action{User: 1, Item: it, Time: 2},
		)
	}
	// Items only 2 and 3 adopt, 3 first: influence flows 2<-3? No edge 3->2,
	// so these episodes only feed the global-similarity channel.
	for it := int32(40); it < 60; it++ {
		actions = append(actions,
			actionlog.Action{User: 2, Item: it, Time: 1},
			actionlog.Action{User: 3, Item: it, Time: 2},
		)
	}
	l, err := actionlog.FromActions(4, actions)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(g, l, Config{
		Dim: 12, Iterations: 15, Seed: 3, LearningRate: 0.05, ContextLength: 10, Alpha: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	if m.Score(0, 1) <= m.Score(1, 0) {
		t.Errorf("direction not learned: x(0,1)=%v <= x(1,0)=%v", m.Score(0, 1), m.Score(1, 0))
	}
	if m.Score(0, 1) <= m.Score(0, 2) {
		t.Errorf("influence pair not above unrelated pair: x(0,1)=%v <= x(0,2)=%v", m.Score(0, 1), m.Score(0, 2))
	}
	// Global similarity: co-adopters 2,3 should score higher with each other
	// than with the unrelated pair's members.
	if m.Score(2, 3) <= m.Score(0, 3) {
		t.Errorf("similarity not learned: x(2,3)=%v <= x(0,3)=%v", m.Score(2, 3), m.Score(0, 3))
	}
}

// TestTrainIdenticalAcrossWorkers pins that Config.Workers selects
// nothing: runs at 1, 2 and 8 workers save the same store bytes, report
// the same epoch losses and write the same checkpoint bytes, apart from
// the wall-clock epoch durations it records.
func TestTrainIdenticalAcrossWorkers(t *testing.T) {
	g, l := corpusWorld(t)
	type run struct {
		store, ckpt []byte
		losses      []float64
	}
	train := func(workers int) run {
		path := filepath.Join(t.TempDir(), "train.ckpt")
		cfg := Config{Dim: 8, Iterations: 3, Seed: 19, ContextLength: 10, Workers: workers, CheckpointPath: path}
		res, err := Train(g, l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var r run
		var buf bytes.Buffer
		if err := res.Model.Store.Save(&buf); err != nil {
			t.Fatal(err)
		}
		r.store = buf.Bytes()
		for _, e := range res.Epochs {
			r.losses = append(r.losses, e.Loss)
		}
		st, err := checkpoint.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		clear(st.EpochNanos)
		buf = bytes.Buffer{}
		if err := checkpoint.Save(&buf, st); err != nil {
			t.Fatal(err)
		}
		r.ckpt = buf.Bytes()
		return r
	}
	ref := train(1)
	if len(ref.losses) != 3 {
		t.Fatalf("%d epochs at one worker, want 3", len(ref.losses))
	}
	for _, workers := range []int{2, 8} {
		got := train(workers)
		if !bytes.Equal(got.store, ref.store) {
			t.Errorf("workers=%d: store bytes differ from one worker", workers)
		}
		if !slices.Equal(got.losses, ref.losses) {
			t.Errorf("workers=%d: epoch losses %v, one worker %v", workers, got.losses, ref.losses)
		}
		if !bytes.Equal(got.ckpt, ref.ckpt) {
			t.Errorf("workers=%d: checkpoint bytes differ from one worker", workers)
		}
	}
}

// TestResumeRejectsStreamCount pins that a run has exactly one SGD
// stream: a checkpoint that carries two is refused, not half-restored.
func TestResumeRejectsStreamCount(t *testing.T) {
	g, l := chainData(t, 10)
	path := filepath.Join(t.TempDir(), "train.ckpt")
	cfg := Config{Dim: 4, Iterations: 2, Seed: 5, ContextLength: 6, CheckpointPath: path}
	if _, err := Train(g, l, cfg); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 1 {
		t.Fatalf("checkpoint has %d SGD streams, want 1", len(st.Workers))
	}
	st.Workers = append(st.Workers, st.Workers[0])
	if err := checkpoint.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(context.Background(), g, l, cfg); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("Resume of a two-stream checkpoint: err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestTrainDisableBiases(t *testing.T) {
	g, l := chainData(t, 10)
	res, err := Train(g, l, Config{Dim: 6, Iterations: 3, Seed: 2, DisableBiases: true})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 4; u++ {
		if *res.Model.Store.BiasSource(u) != 0 || *res.Model.Store.BiasTarget(u) != 0 {
			t.Fatal("biases moved despite DisableBiases")
		}
	}
}

// TestApplyExampleGradientDirection verifies the Eq. 6 updates move the
// score the right way: up for positives, down for negatives, and that the
// update increases the Eq. 4 objective for a small step.
func TestApplyExampleGradientDirection(t *testing.T) {
	store, err := embed.New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	store.Init(rng.New(6))
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}

	objective := func(u, v int32, label float32) float64 {
		z := store.Score(u, v)
		if label == 1 {
			return vecmath.LogSigmoid(z)
		}
		return vecmath.LogSigmoid(-z)
	}

	for _, label := range []float32{1, 0} {
		before := store.Score(0, 1)
		objBefore := objective(0, 1, label)
		srcGrad := make([]float32, 4)
		su := store.SourceVec(0)
		applyExample(store, su, store.BiasSource(0), 0, 1, label, 0.01, srcGrad, cfg, tableLoss)
		vecmath.Axpy(1, srcGrad, su)
		after := store.Score(0, 1)
		objAfter := objective(0, 1, label)
		if label == 1 && after <= before {
			t.Errorf("positive update decreased score: %v -> %v", before, after)
		}
		if label == 0 && after >= before {
			t.Errorf("negative update increased score: %v -> %v", before, after)
		}
		if objAfter <= objBefore {
			t.Errorf("label %v update decreased objective: %v -> %v", label, objBefore, objAfter)
		}
	}
}

// TestApplyExampleMatchesNumericGradient compares the implemented update
// against a numerically differentiated Eq. 4 objective on a single positive
// example (biases included). FastSigmoid's table error bounds the tolerance.
func TestApplyExampleMatchesNumericGradient(t *testing.T) {
	const k = 3
	store, err := embed.New(2, k)
	if err != nil {
		t.Fatal(err)
	}
	store.Init(rng.New(8))
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}

	// Copy parameters to compute numeric gradients of log σ(z(u,v)).
	obj := func(su, tv []float32, bu, bv float32) float64 {
		var z float64
		for i := 0; i < k; i++ {
			z += float64(su[i]) * float64(tv[i])
		}
		z += float64(bu) + float64(bv)
		return vecmath.LogSigmoid(z)
	}
	su0 := append([]float32(nil), store.SourceVec(0)...)
	tv0 := append([]float32(nil), store.TargetVec(1)...)
	bu0, bv0 := *store.BiasSource(0), *store.BiasTarget(1)

	const h = 1e-3
	numGradSu := make([]float64, k)
	numGradTv := make([]float64, k)
	for i := 0; i < k; i++ {
		sp := append([]float32(nil), su0...)
		sp[i] += h
		sm := append([]float32(nil), su0...)
		sm[i] -= h
		numGradSu[i] = (obj(sp, tv0, bu0, bv0) - obj(sm, tv0, bu0, bv0)) / (2 * h)
		tp := append([]float32(nil), tv0...)
		tp[i] += h
		tm := append([]float32(nil), tv0...)
		tm[i] -= h
		numGradTv[i] = (obj(su0, tp, bu0, bv0) - obj(su0, tm, bu0, bv0)) / (2 * h)
	}
	numGradBu := (obj(su0, tv0, bu0+h, bv0) - obj(su0, tv0, bu0-h, bv0)) / (2 * h)

	const gamma = 1.0 // unit step exposes the raw gradient
	srcGrad := make([]float32, k)
	su := store.SourceVec(0)
	applyExample(store, su, store.BiasSource(0), 0, 1, 1, gamma, srcGrad, cfg, tableLoss)

	const tol = 5e-3 // FastSigmoid table error times parameter scale
	for i := 0; i < k; i++ {
		if math.Abs(float64(srcGrad[i])-numGradSu[i]) > tol {
			t.Errorf("dS_u[%d]: applied %v, numeric %v", i, srcGrad[i], numGradSu[i])
		}
		applied := float64(store.TargetVec(1)[i] - tv0[i])
		if math.Abs(applied-numGradTv[i]) > tol {
			t.Errorf("dT_v[%d]: applied %v, numeric %v", i, applied, numGradTv[i])
		}
	}
	if got := float64(*store.BiasSource(0) - bu0); math.Abs(got-numGradBu) > tol {
		t.Errorf("db_u: applied %v, numeric %v", got, numGradBu)
	}
}

func TestTrainFirstOrderOnlyFasterCorpus(t *testing.T) {
	g, l := chainData(t, 10)
	full, err := Train(g, l, Config{Dim: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := Train(g, l, Config{Dim: 4, Iterations: 1, Seed: 1, FirstOrderOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if pairs.NumPositives >= full.NumPositives {
		t.Fatalf("pairs-only corpus (%d) not smaller than full corpus (%d)",
			pairs.NumPositives, full.NumPositives)
	}
}
