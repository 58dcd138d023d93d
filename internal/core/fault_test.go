package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/checkpoint"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// faultData builds a moderately sized planted dataset so multi-epoch runs
// have real work to do.
func faultData(t *testing.T, items int32) (*graph.Graph, *actionlog.Log) {
	t.Helper()
	const n = 30
	var edges [][2]int32
	for u := int32(0); u < n-1; u++ {
		edges = append(edges, [2]int32{u, u + 1})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	var actions []actionlog.Action
	for it := int32(0); it < items; it++ {
		base := (it * 3) % (n - 5)
		for off := int32(0); off < 5; off++ {
			actions = append(actions, actionlog.Action{User: base + off, Item: it, Time: float64(off)})
		}
	}
	l, err := actionlog.FromActions(n, actions)
	if err != nil {
		t.Fatal(err)
	}
	return g, l
}

func storesEqual(t *testing.T, a, b *embed.Store) {
	t.Helper()
	if a.NumUsers() != b.NumUsers() || a.Dim() != b.Dim() {
		t.Fatalf("store shapes differ: %dx%d vs %dx%d", a.NumUsers(), a.Dim(), b.NumUsers(), b.Dim())
	}
	for u := int32(0); u < a.NumUsers(); u++ {
		sa, sb := a.SourceVec(u), b.SourceVec(u)
		ta, tb := a.TargetVec(u), b.TargetVec(u)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("source row %d coord %d: %v vs %v", u, i, sa[i], sb[i])
			}
			if ta[i] != tb[i] {
				t.Fatalf("target row %d coord %d: %v vs %v", u, i, ta[i], tb[i])
			}
		}
		if *a.BiasSource(u) != *b.BiasSource(u) || *a.BiasTarget(u) != *b.BiasTarget(u) {
			t.Fatalf("bias %d differs", u)
		}
	}
}

// TestResumeBitwiseExact is the kill-and-resume acceptance test: training
// with CheckpointEvery=1, "killing" the run at an intermediate epoch, and
// resuming from the checkpoint must be bitwise identical to an
// uninterrupted single-worker run with the same seed.
func TestResumeBitwiseExact(t *testing.T) {
	for _, regen := range []bool{false, true} {
		g, l := faultData(t, 40)
		dir := t.TempDir()
		cfg := Config{
			Dim: 8, Iterations: 6, Seed: 17, Workers: 1, ContextLength: 10,
			RegenerateContexts: regen,
			CheckpointPath:     filepath.Join(dir, "train.ckpt"),
			CheckpointEvery:    1,
		}

		// Uninterrupted reference run.
		ref, err := Train(g, l, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Interrupted run: stop after epoch 3 via mid-training cancellation.
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
		if !killed.Canceled {
			t.Fatal("interrupted run not flagged Canceled")
		}
		if len(killed.Epochs) != 3 {
			t.Fatalf("interrupted run recorded %d epochs, want 3", len(killed.Epochs))
		}

		// Resume and compare bitwise.
		resumed, err := Resume(context.Background(), g, l, cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.StartEpoch != 3 {
			t.Fatalf("regen=%t: resumed from epoch %d, want 3", regen, resumed.StartEpoch)
		}
		if resumed.Canceled {
			t.Fatal("resumed run flagged Canceled")
		}
		if len(resumed.Epochs) != cfg.Iterations {
			t.Fatalf("resumed run has %d epoch stats, want %d", len(resumed.Epochs), cfg.Iterations)
		}
		storesEqual(t, resumed.Model.Store, ref.Model.Store)
		for i := range ref.Epochs {
			if resumed.Epochs[i].Loss != ref.Epochs[i].Loss {
				t.Fatalf("regen=%t: epoch %d loss %v, reference %v", regen, i, resumed.Epochs[i].Loss, ref.Epochs[i].Loss)
			}
		}
	}
}

// TestResumeCompletedRun resumes a checkpoint of a finished run and expects
// the final model back with no extra epochs.
func TestResumeCompletedRun(t *testing.T) {
	g, l := faultData(t, 20)
	cfg := Config{
		Dim: 6, Iterations: 4, Seed: 5, ContextLength: 8,
		CheckpointPath: filepath.Join(t.TempDir(), "done.ckpt"),
	}
	ref, err := Train(g, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(context.Background(), g, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartEpoch != cfg.Iterations || len(res.Epochs) != cfg.Iterations {
		t.Fatalf("resume of complete run: start %d, epochs %d", res.StartEpoch, len(res.Epochs))
	}
	storesEqual(t, res.Model.Store, ref.Model.Store)
}

func TestResumeRejectsConfigMismatch(t *testing.T) {
	g, l := faultData(t, 20)
	cfg := Config{
		Dim: 6, Iterations: 3, Seed: 5, ContextLength: 8,
		CheckpointPath: filepath.Join(t.TempDir(), "train.ckpt"),
	}
	if _, err := Train(g, l, cfg); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.LearningRate = 0.1
	if _, err := Resume(context.Background(), g, l, other); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("mismatched config: err = %v, want ErrCheckpointMismatch", err)
	}
	noPath := cfg
	noPath.CheckpointPath = ""
	if _, err := Resume(context.Background(), g, l, noPath); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty path: err = %v, want ErrBadConfig", err)
	}
}

// TestDivergenceRecovery injects a NaN into the store after an epoch and
// asserts the trainer rolls back to the last checkpoint, halves the
// learning rate, finishes with finite parameters, and reports the event.
func TestDivergenceRecovery(t *testing.T) {
	g, l := faultData(t, 30)
	cfg := Config{
		Dim: 6, Iterations: 5, Seed: 9, ContextLength: 8,
		CheckpointEvery: 1, // in-memory snapshots only: no path
	}
	injected := false
	stop := testAfterEpoch
	testAfterEpoch = func(done int, store *embed.Store) {
		if done == 3 && !injected {
			injected = true
			store.SourceVec(0)[0] = float32(math.NaN())
		}
	}
	res, err := Train(g, l, cfg)
	testAfterEpoch = stop
	if err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("fault was never injected")
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries = %+v, want exactly one", res.Recoveries)
	}
	rec := res.Recoveries[0]
	if rec.Epoch != 2 || rec.LRScale != 0.5 || rec.Reinit {
		t.Fatalf("recovery = %+v, want rollback at epoch 2 with LRScale 0.5", rec)
	}
	if res.Model.Store.SampleNonFinite(1 << 30) {
		t.Fatal("final model has non-finite parameters")
	}
	if len(res.Epochs) != cfg.Iterations {
		t.Fatalf("epochs = %d, want %d", len(res.Epochs), cfg.Iterations)
	}
}

// TestDivergenceReinitWithoutSnapshot covers the no-checkpoint path: with
// snapshots disabled the trainer re-initializes and restarts at a halved
// rate.
func TestDivergenceReinitWithoutSnapshot(t *testing.T) {
	g, l := faultData(t, 30)
	cfg := Config{Dim: 6, Iterations: 4, Seed: 9, ContextLength: 8}
	injected := false
	stop := testAfterEpoch
	testAfterEpoch = func(done int, store *embed.Store) {
		if done == 2 && !injected {
			injected = true
			store.SourceVec(1)[0] = float32(math.Inf(1))
		}
	}
	res, err := Train(g, l, cfg)
	testAfterEpoch = stop
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 || !res.Recoveries[0].Reinit {
		t.Fatalf("recoveries = %+v, want one re-init event", res.Recoveries)
	}
	if res.Model.Store.SampleNonFinite(1 << 30) {
		t.Fatal("final model has non-finite parameters")
	}
	if len(res.Epochs) != cfg.Iterations {
		t.Fatalf("epochs = %d, want %d", len(res.Epochs), cfg.Iterations)
	}
}

// TestDivergenceRetriesExhausted keeps re-injecting NaN so every recovery
// fails; the trainer must give up with ErrDiverged instead of returning a
// garbage model.
func TestDivergenceRetriesExhausted(t *testing.T) {
	g, l := faultData(t, 20)
	cfg := Config{Dim: 4, Iterations: 4, Seed: 2, ContextLength: 8, MaxDivergenceRetries: 2}
	stop := testAfterEpoch
	testAfterEpoch = func(done int, store *embed.Store) {
		store.SourceVec(0)[0] = float32(math.NaN())
	}
	_, err := Train(g, l, cfg)
	testAfterEpoch = stop
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

// TestDivergenceDetectionDisabled: a negative retry bound must switch the
// guard off entirely.
func TestDivergenceDetectionDisabled(t *testing.T) {
	g, l := faultData(t, 20)
	cfg := Config{Dim: 4, Iterations: 3, Seed: 2, ContextLength: 8, MaxDivergenceRetries: -1}
	stop := testAfterEpoch
	testAfterEpoch = func(done int, store *embed.Store) {
		store.SourceVec(0)[0] = float32(math.NaN())
	}
	res, err := Train(g, l, cfg)
	testAfterEpoch = stop
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 0 {
		t.Fatalf("recoveries = %+v with detection disabled", res.Recoveries)
	}
}

// TestCancellationSemantics cancels mid-training and asserts the returned
// model is usable, Epochs is consistent with the completed passes, and no
// worker goroutines leak.
func TestCancellationSemantics(t *testing.T) {
	g, l := faultData(t, 60)
	cfg := Config{Dim: 8, Iterations: 50, Seed: 13, ContextLength: 10, Workers: 4}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	stop := testAfterEpoch
	testAfterEpoch = func(done int, _ *embed.Store) {
		if done == 2 {
			cancel()
		}
	}
	res, err := TrainContext(ctx, g, l, cfg)
	testAfterEpoch = stop
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("canceled run not flagged")
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs recorded = %d, want 2 (completed before cancel)", len(res.Epochs))
	}
	// The best-so-far model must be usable: finite parameters, scorable.
	if res.Model.Store.SampleNonFinite(1 << 30) {
		t.Fatal("canceled model has non-finite parameters")
	}
	if s := res.Model.Score(0, 1); math.IsNaN(s) {
		t.Fatal("canceled model does not score")
	}
	// Workers must have drained: allow the runtime a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after cancellation", before, after)
	}
}

// TestCancellationMidEpochStopsQuickly cancels while a pass is running (not
// at a boundary) and expects sgdPass to drain within the check interval.
func TestCancellationMidEpochStopsQuickly(t *testing.T) {
	g, l := faultData(t, 60)
	cfg := Config{Dim: 8, Iterations: 1000000, Seed: 13, ContextLength: 10}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := TrainContext(ctx, g, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("canceled run not flagged")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestSampleNegativeResamples verifies the bounded-retry negative sampler:
// on a 3-user uniform table it must essentially always find the one user
// that is neither the center nor the positive, where a skip-on-collision
// sampler would lose two thirds of the draws.
func TestSampleNegativeResamples(t *testing.T) {
	table, err := rng.NewUnigramTable([]int64{1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	const trials = 2000
	got := 0
	for i := 0; i < trials; i++ {
		w, ok := sampleNegative(table, r, 0, 1)
		if ok {
			if w != 2 {
				t.Fatalf("sampleNegative returned %d, the center or positive", w)
			}
			got++
		}
	}
	// P(miss) = (2/3)^8 ≈ 3.9%; demand well above the 33% a skip would get.
	if float64(got) < 0.9*trials {
		t.Fatalf("resampling found a negative in only %d/%d trials", got, trials)
	}
	// Degenerate table where every draw collides: must give up, not loop.
	stuck, err := rng.NewUnigramTable([]int64{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, ok := sampleNegative(stuck, r, 0, 1); ok {
			t.Fatal("degenerate table produced a negative")
		}
	}
}

// TestCheckpointFileUpdatedEachInterval trains with CheckpointEvery=2 and
// confirms the file on disk tracks the newest boundary.
func TestCheckpointFileUpdatedEachInterval(t *testing.T) {
	g, l := faultData(t, 20)
	path := filepath.Join(t.TempDir(), "train.ckpt")
	cfg := Config{
		Dim: 4, Iterations: 5, Seed: 3, ContextLength: 8,
		CheckpointPath: path, CheckpointEvery: 2,
	}
	if _, err := Train(g, l, cfg); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The final flush at epoch == Iterations wins.
	if st.EpochsDone != 5 {
		t.Fatalf("checkpoint at epoch %d, want 5", st.EpochsDone)
	}
	if len(st.EpochLoss) != 5 {
		t.Fatalf("checkpoint has %d epoch stats, want 5", len(st.EpochLoss))
	}
}

// TestCheckpointSnapshotReusesOneStore pins what in-memory checkpoints
// allocate: every one copies the store into the same snapshot store, so ten
// epochs at CheckpointEvery 1 allocate less than two stores more than the
// same run without checkpoints. A clone per checkpoint allocated ten.
func TestCheckpointSnapshotReusesOneStore(t *testing.T) {
	const users, dim = 2000, 50
	r := rng.New(21)
	corpus := &Corpus{ContextFreq: make([]int64, users)}
	for i := 0; i < 50; i++ {
		ctx := []int32{int32(r.Intn(users)), int32(r.Intn(users))}
		for _, v := range ctx {
			corpus.ContextFreq[v]++
		}
		corpus.Tuples = append(corpus.Tuples, Tuple{Center: int32(r.Intn(users)), Context: ctx})
		corpus.NumPositives += int64(len(ctx))
	}
	allocated := func(every int) uint64 {
		cfg := Config{Dim: dim, Iterations: 10, Seed: 3, Workers: 1, CheckpointEvery: every}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := TrainOnCorpus(users, corpus, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	storeBytes := uint64(users) * (2*dim + 2) * 4
	without, with := allocated(0), allocated(1)
	t.Logf("allocated %d bytes without checkpoints, %d with one per epoch (store %d bytes)", without, with, storeBytes)
	if with > without+2*storeBytes {
		t.Errorf("ten in-memory checkpoints allocated %d bytes more than none, want under two stores (%d bytes)",
			with-without, 2*storeBytes)
	}
}
