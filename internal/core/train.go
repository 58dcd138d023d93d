package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/checkpoint"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/obs"
	"inf2vec/internal/rng"
	"inf2vec/internal/trainer"
	"inf2vec/internal/vecmath"
)

// Model is a trained Inf2vec model: the embedding store plus the
// configuration that produced it.
type Model struct {
	Store  *embed.Store
	Config Config
}

// Score returns x(u,v) = S_u · T_v + b_u + b̃_v, the learned likelihood that
// u influences v (Eq. 7's per-pair term).
func (m *Model) Score(u, v int32) float64 { return m.Store.Score(u, v) }

// EpochStat records one SGD pass for convergence and efficiency reporting
// (the paper's Figure 9 measures exactly Duration at varying K).
type EpochStat struct {
	// Loss is the mean negative-sampling objective (Eq. 4) per positive,
	// estimated over the pass; higher (closer to zero) is better. It is a
	// table estimate: each term comes from vecmath.FastLogSigmoid, within
	// 1.5e-3 of the exact log-sigmoid for logits inside (-6, 6) and 2.5e-3
	// outside, and a NaN or -Inf term passes through to the sum.
	Loss float64
	// Duration is the wall-clock time of the pass.
	Duration time.Duration
}

// Recovery records one divergence-recovery event: the epoch whose pass
// produced non-finite parameters, the halved learning-rate multiplier
// applied afterwards, and whether the store was re-initialized (no rollback
// snapshot existed) rather than rolled back.
type Recovery = checkpoint.Recovery

// ErrDiverged is returned when training produces non-finite parameters and
// the bounded divergence recovery (rollback + learning-rate halving) fails
// to restore a finite trajectory.
var ErrDiverged = errors.New("core: training diverged and exhausted recovery retries")

// ErrCheckpointMismatch is returned by Resume when the checkpoint on disk
// was written under a different training configuration than the one
// supplied, or does not hold exactly one SGD stream.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match the training configuration")

// Result is the outcome of Train.
type Result struct {
	Model *Model
	// ContextGeneration is the wall-clock time of Algorithm 2 lines 3–8.
	ContextGeneration time.Duration
	// Epochs has one entry per completed SGD pass, including passes
	// replayed from a resumed checkpoint.
	Epochs []EpochStat
	// NumTuples and NumPositives describe the generated corpus (|P| and
	// |P|·L in the paper's complexity analysis).
	NumTuples    int
	NumPositives int64
	// StartEpoch is the first epoch this call actually executed: 0 for a
	// fresh run, the checkpoint's completed-epoch count after Resume.
	StartEpoch int
	// Canceled reports that the context was canceled before the configured
	// iterations completed. The model holds the best-so-far parameters
	// (every completed epoch, plus any partial pass that was draining when
	// cancellation hit); Epochs records completed passes only.
	Canceled bool
	// Recoveries is the divergence-recovery history, oldest first.
	Recoveries []Recovery
}

// testAfterEpoch, when non-nil, is invoked after every completed epoch with
// the number of completed epochs and the live store. Tests use it to inject
// faults (e.g. NaN parameters) at epoch boundaries.
var testAfterEpoch func(epochsDone int, store *embed.Store)

// Train runs Algorithm 2: generate the influence-context corpus, then fit
// the embeddings by negative-sampling SGD. The provided log must be the
// training split.
func Train(g *graph.Graph, log *actionlog.Log, cfg Config) (*Result, error) {
	return TrainContext(context.Background(), g, log, cfg)
}

// TrainContext is Train under a cancellation context. Cancellation is
// observed between epochs and every cancelCheckTuples tuples inside each
// pass; on cancellation the best-so-far model is returned with
// Result.Canceled set rather than an error.
func TrainContext(ctx context.Context, g *graph.Graph, log *actionlog.Log, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if g.NumNodes() < log.NumUsers() {
		return nil, fmt.Errorf("core: graph has %d nodes but log speaks of %d users", g.NumNodes(), log.NumUsers())
	}
	return trainOnLog(ctx, g, log, cfg, nil)
}

// Resume continues a training run from the checkpoint at
// cfg.CheckpointPath. The graph, log and configuration must match the
// original run (enforced via a configuration fingerprint stored in the
// checkpoint); the corpus is regenerated deterministically from the seed,
// the store and every RNG stream are restored from the checkpoint, and
// training continues from the recorded epoch. Resuming a run that already
// completed returns the final model immediately.
func Resume(ctx context.Context, g *graph.Graph, log *actionlog.Log, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("%w: Resume needs Config.CheckpointPath", ErrBadConfig)
	}
	if g.NumNodes() < log.NumUsers() {
		return nil, fmt.Errorf("core: graph has %d nodes but log speaks of %d users", g.NumNodes(), log.NumUsers())
	}
	st, err := checkpoint.LoadFile(cfg.CheckpointPath)
	if err != nil {
		return nil, err
	}
	if st.ConfigHash != cfg.hash() {
		return nil, fmt.Errorf("%w: %s was written under different hyperparameters", ErrCheckpointMismatch, cfg.CheckpointPath)
	}
	return trainOnLog(ctx, g, log, cfg, st)
}

// trainOnLog runs Algorithm 2 on a validated configuration: context
// generation as a corpus_gen span, then the SGD phase, resuming from resume
// when it is non-nil. Under RegenerateContexts every redraw is a corpus_gen
// span too.
func trainOnLog(ctx context.Context, g *graph.Graph, log *actionlog.Log, cfg Config, resume *checkpoint.State) (*Result, error) {
	root := rng.New(cfg.Seed)
	corpus, ctxTime := generateCorpus(ctx, g, log, cfg, root.Split())
	var regen func(r *rng.RNG) *Corpus
	if cfg.RegenerateContexts {
		regen = func(r *rng.RNG) *Corpus {
			c, _ := generateCorpus(ctx, g, log, cfg, r)
			return c
		}
	}
	return trainOnCorpus(ctx, log.NumUsers(), corpus, cfg, root, ctxTime, regen, resume)
}

// TrainOnCorpus fits the embeddings to an already-generated corpus. It is
// the entry point for callers that build influence contexts themselves —
// the citation case study trains directly on first-order influence pairs
// this way.
func TrainOnCorpus(numUsers int32, corpus *Corpus, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if int32(len(corpus.ContextFreq)) != numUsers {
		return nil, fmt.Errorf("core: corpus frequency table covers %d users, want %d", len(corpus.ContextFreq), numUsers)
	}
	return trainOnCorpus(context.Background(), numUsers, corpus, cfg, rng.New(cfg.Seed), 0, nil, nil)
}

// trainOnCorpus is the shared SGD phase of Algorithm 2 (lines 9–17),
// wrapped in the fault-tolerance layer: cooperative cancellation, periodic
// atomic checkpoints, and divergence detection with rollback recovery.
// regen, when non-nil, redraws the corpus before every epoch after the
// first (RegenerateContexts).
//
// Each pass is an "epoch" child span of ctx's span, and checkpoint writes
// and divergence recoveries are events on ctx's span. A pass cut by
// cancellation ends its span "canceled"; a panic unwinding through an open
// one (the streaming pipeline's injected crashes) ends it "aborted". With
// no span in ctx, none of this allocates or records anything.
func trainOnCorpus(ctx context.Context, numUsers int32, corpus *Corpus, cfg Config, root *rng.RNG, ctxTime time.Duration, regen func(*rng.RNG) *Corpus, resume *checkpoint.State) (*Result, error) {
	store, err := embed.New(numUsers, cfg.Dim)
	if err != nil {
		return nil, err
	}
	store.Init(root.Split())
	// Warm start overwrites the known-user rows after the full random init:
	// the root RNG advances identically with or without it, so new-user rows
	// (and every later draw) match a cold run bit for bit.
	if cfg.WarmStart != nil {
		if err := store.CopyPrefix(cfg.WarmStart); err != nil {
			return nil, fmt.Errorf("core: warm start: %w", err)
		}
	}

	neg, err := rng.NewUnigramTable(corpus.ContextFreq, cfg.NegativePower)
	if err != nil {
		return nil, fmt.Errorf("core: building negative-sampling table: %w", err)
	}

	res := &Result{
		Model:             &Model{Store: store, Config: cfg},
		ContextGeneration: ctxTime,
		NumTuples:         len(corpus.Tuples),
		NumPositives:      corpus.NumPositives,
	}
	if len(corpus.Tuples) == 0 {
		// Nothing to learn from (empty or influence-free log): return the
		// random-initialized model rather than failing, mirroring how the
		// paper's method degrades on propagation-free data.
		cfg.emit(trainer.Event{Kind: trainer.EventTrainStart, Epochs: cfg.Iterations})
		cfg.emit(trainer.Event{Kind: trainer.EventTrainEnd})
		return res, nil
	}

	sgdRNG := root.Split() // every negative of every pass
	orderRNG := root.Split()
	baseCorpus, baseNeg := corpus, neg
	cfgHash := cfg.hash()

	epoch := 0                 // completed epochs; invariant: len(res.Epochs) == epoch
	lrScale := 1.0             // divergence-recovery multiplier on the step size
	retries := 0               // divergence recoveries consumed
	var snap *checkpoint.State // in-memory mirror of the last checkpoint
	var snapStore *embed.Store // snap's copy of the store, reused by every sync

	if resume != nil {
		if resume.Store == nil || resume.Store.NumUsers() != numUsers || resume.Store.Dim() != cfg.Dim {
			return nil, fmt.Errorf("%w: checkpoint store shape does not fit %d users x K=%d", ErrCheckpointMismatch, numUsers, cfg.Dim)
		}
		if len(resume.Workers) != 1 {
			return nil, fmt.Errorf("%w: checkpoint has %d SGD streams, want 1", ErrCheckpointMismatch, len(resume.Workers))
		}
		if err := store.CopyFrom(resume.Store); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
		}
		root.SetState(resume.Root)
		orderRNG.SetState(resume.Order)
		sgdRNG.SetState(resume.Workers[0])
		epoch = resume.EpochsDone
		lrScale = resume.LRScale
		retries = resume.Retries
		res.StartEpoch = epoch
		res.Recoveries = append(res.Recoveries, resume.Recoveries...)
		for i := range resume.EpochLoss {
			res.Epochs = append(res.Epochs, EpochStat{Loss: resume.EpochLoss[i], Duration: time.Duration(resume.EpochNanos[i])})
		}
		snapStore = store.Clone()
		snap = resume
		snap.Store = snapStore
	}
	cfg.emit(trainer.Event{
		Kind: trainer.EventTrainStart, Epoch: epoch + 1, Epochs: cfg.Iterations,
		NumTuples: res.NumTuples, NumPositives: res.NumPositives,
	})
	parent := obs.SpanFromContext(ctx)
	var span *obs.Span // the open epoch span
	defer func() { span.EndWith("aborted") }()

	// capture assembles the current training state; the store is shared, so
	// callers writing to disk can stream it and callers keeping a rollback
	// snapshot copy it.
	capture := func() *checkpoint.State {
		st := &checkpoint.State{
			ConfigHash: cfgHash,
			LRScale:    lrScale,
			EpochsDone: epoch,
			Retries:    retries,
			EpochLoss:  make([]float64, len(res.Epochs)),
			EpochNanos: make([]int64, len(res.Epochs)),
			Recoveries: append([]Recovery(nil), res.Recoveries...),
			Root:       root.State(),
			Order:      orderRNG.State(),
			Workers:    [][4]uint64{sgdRNG.State()},
			Store:      store,
		}
		for i, e := range res.Epochs {
			st.EpochLoss[i] = e.Loss
			st.EpochNanos[i] = int64(e.Duration)
		}
		return st
	}
	// sync writes a durable checkpoint (when configured) and refreshes the
	// in-memory rollback snapshot, copying the store into snapStore, which
	// only the snapshot it replaces referenced. Only called at healthy epoch
	// boundaries.
	sync := func() error {
		st := capture()
		if cfg.CheckpointPath != "" {
			if err := checkpoint.SaveFile(cfg.CheckpointPath, st); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			if parent != nil {
				parent.Event("checkpoint_written", map[string]any{"path": cfg.CheckpointPath})
			}
			cfg.emit(trainer.Event{Kind: trainer.EventCheckpointWritten, Epoch: epoch, CheckpointPath: cfg.CheckpointPath})
		}
		if snapStore == nil {
			snapStore = store.Clone()
		} else {
			snapStore.CopyFrom(store)
		}
		st.Store = snapStore
		snap = st
		return nil
	}
	// rollback restores the last snapshot; the halved lrScale and consumed
	// retry deliberately survive it.
	rollback := func(s *checkpoint.State) {
		store.CopyFrom(s.Store)
		root.SetState(s.Root)
		orderRNG.SetState(s.Order)
		sgdRNG.SetState(s.Workers[0])
		epoch = s.EpochsDone
		res.Epochs = res.Epochs[:epoch]
	}

	done := ctx.Done()
	for epoch < cfg.Iterations {
		if ctx.Err() != nil {
			// Caught at an epoch boundary: the store is consistent, so a
			// final checkpoint preserves all completed progress.
			res.Canceled = true
			if cfg.CheckpointPath != "" && epoch > 0 {
				if err := sync(); err != nil {
					return nil, err
				}
			}
			cfg.emit(trainer.Event{Kind: trainer.EventTrainEnd, Epochs: epoch, Canceled: true})
			return res, nil
		}
		if regen != nil {
			if epoch > 0 {
				corpus = regen(root.Split())
				var nerr error
				neg, nerr = rng.NewUnigramTable(corpus.ContextFreq, cfg.NegativePower)
				if nerr != nil {
					return nil, fmt.Errorf("core: rebuilding negative-sampling table: %w", nerr)
				}
			} else if corpus != baseCorpus {
				// Rolled back (or re-initialized) to epoch 0: epoch 0 trains
				// on the original draw, not the last regenerated one.
				corpus, neg = baseCorpus, baseNeg
			}
		}
		order := orderRNG.Perm(len(corpus.Tuples))
		gamma := gammaAt(cfg, epoch, lrScale)
		span = obs.ChildSpan(ctx, "epoch")
		if span != nil {
			span.SetAttr("epoch", epoch+1)
			span.SetAttr("lr", float64(gamma))
		}
		cfg.emit(trainer.Event{Kind: trainer.EventEpochStart, Epoch: epoch + 1, LearningRate: float64(gamma)})
		t0 := time.Now()
		totals := sgdPass(done, store, corpus.Tuples, order, neg, cfg, gamma, sgdRNG)
		totalLoss, totalPos := totals.Loss, totals.Examples
		if ctx.Err() != nil {
			// Canceled mid-pass: the pass stopped early, the store holds a
			// usable partial update but not an epoch boundary, so the pass
			// is neither recorded nor checkpointed.
			res.Canceled = true
			span.EndWith("canceled")
			cfg.emit(trainer.Event{Kind: trainer.EventTrainEnd, Epochs: epoch, Canceled: true})
			return res, nil
		}
		stat := EpochStat{Duration: time.Since(t0)}
		if totalPos > 0 {
			stat.Loss = totalLoss / float64(totalPos)
		}
		res.Epochs = append(res.Epochs, stat)
		epoch++
		perSec := 0.0
		if s := stat.Duration.Seconds(); s > 0 {
			perSec = float64(totalPos) / s
		}
		if span != nil {
			span.SetAttr("loss", stat.Loss)
			span.SetAttr("examples_per_sec", perSec)
			span.End()
		}
		cfg.emit(trainer.Event{
			Kind: trainer.EventEpochEnd, Epoch: epoch, Loss: stat.Loss,
			DurationSeconds: stat.Duration.Seconds(), ExamplesPerSec: perSec,
			LearningRate: float64(gamma),
		})
		if testAfterEpoch != nil {
			testAfterEpoch(epoch, store)
		}
		if cfg.MaxDivergenceRetries >= 0 && diverged(stat.Loss, store) {
			if retries >= cfg.MaxDivergenceRetries {
				return nil, fmt.Errorf("%w: non-finite parameters after epoch %d (%d recoveries attempted)", ErrDiverged, epoch-1, retries)
			}
			retries++
			lrScale /= 2
			res.Recoveries = append(res.Recoveries, Recovery{Epoch: epoch - 1, LRScale: lrScale, Reinit: snap == nil})
			if parent != nil {
				parent.Event("divergence_recovery", map[string]any{"lr_scale": lrScale, "reinit": snap == nil})
			}
			cfg.emit(trainer.Event{Kind: trainer.EventDivergenceRecovery, Epoch: epoch, LRScale: lrScale, Reinit: snap == nil})
			if snap != nil {
				rollback(snap)
			} else {
				// No checkpoint to return to: re-initialize and restart the
				// epoch count at the reduced step size. The warm start is
				// part of the starting point, so it is reapplied (shape
				// already validated at the initial copy).
				store.Init(root.Split())
				if cfg.WarmStart != nil {
					store.CopyPrefix(cfg.WarmStart)
				}
				epoch = 0
				res.Epochs = res.Epochs[:0]
			}
			continue
		}
		if cfg.CheckpointEvery > 0 && (epoch%cfg.CheckpointEvery == 0 || epoch == cfg.Iterations) {
			if err := sync(); err != nil {
				return nil, err
			}
		}
	}
	cfg.emit(trainer.Event{Kind: trainer.EventTrainEnd, Epochs: epoch})
	return res, nil
}

// diverged reports whether the epoch left the model in a non-finite state:
// a NaN/Inf mean loss, or NaN/Inf in a strided sample of the parameters
// (the loss sums over every touched row, so the probe is a second line of
// defense for corners the pass did not visit).
func diverged(loss float64, store *embed.Store) bool {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return true
	}
	return store.SampleNonFinite(4096)
}

// gammaAt returns the step size for one pass: the configured (optionally
// decayed) rate scaled by the divergence-recovery multiplier.
func gammaAt(cfg Config, epoch int, lrScale float64) float32 {
	return float32(float64(epochGamma(cfg, epoch)) * lrScale)
}

// epochGamma returns the step size for one pass under the optional linear
// decay schedule.
func epochGamma(cfg Config, epoch int) float32 {
	if cfg.DecayLearningRate && cfg.Iterations > 1 {
		frac := float64(epoch) / float64(cfg.Iterations)
		return float32(cfg.LearningRate * (1 - 0.9*frac))
	}
	return float32(cfg.LearningRate)
}

// cancelCheckTuples is how many tuples sgdPass trains between polls of its
// done channel: often enough that Ctrl-C stops a pass at once, rarely
// enough to be invisible in profiles.
const cancelCheckTuples = 256

// sgdPass is one pass of Algorithm 2's SGD (lines 10–16): it trains the
// tuples in order, each positive as one block step (sgnsBlock.step) over
// the positive and its negatives, all drawn from r. It polls done every
// cancelCheckTuples tuples and returns the totals so far once done is
// closed. Loss sums the table estimate of the Eq. 4 objective; Examples
// counts positives; Skips counts negatives lost to sampleNegative's bound.
// The golden test and TestBlockStepMatchesPerExample pin the result bitwise
// to updating the examples one by one.
func sgdPass(done <-chan struct{}, store *embed.Store, tuples []Tuple, order []int, neg *rng.UnigramTable, cfg Config, gamma float32, r *rng.RNG) trainer.Totals {
	negatives := cfg.NegativeSamples
	b := newSGNSBlock(store, negatives, gamma, !cfg.DisableBiases)
	var tot trainer.Totals
	for i, ti := range order {
		if i%cancelCheckTuples == 0 {
			select {
			case <-done:
				return tot
			default:
			}
		}
		t := &tuples[ti]
		u := t.Center
		for _, v := range t.Context {
			// The draws read no parameters, so drawing every negative
			// before any update consumes the stream in the same order as
			// drawing each one just before its own update. A negative that
			// repeats an earlier one ends the first sub-block; the positive
			// is never drawn again.
			b.targets = append(b.targets[:0], v)
			b.split = 0
			for s := 0; s < negatives; s++ {
				w, ok := sampleNegative(neg, r, u, v)
				if !ok {
					tot.Skips++
					continue
				}
				if b.split == 0 && slices.Contains(b.targets[1:], w) {
					b.split = len(b.targets)
				}
				b.targets = append(b.targets, w)
			}
			b.step(u, &tot.Loss)
			tot.Examples++
		}
	}
	return tot
}

// sgnsBlock is the SGD block step: one positive target and its negatives,
// all updated against the same S_u row. Its slices are scratch
// sized for 1+|N| targets and reused, so a step allocates nothing.
type sgnsBlock struct {
	store  *embed.Store
	gamma  float32
	biases bool

	targets []int32     // the positive first, then the negatives drawn
	split   int         // index of the first negative repeating an earlier one, or 0 if none
	rows    [][]float32 // T rows of the current sub-block
	z, g    []float32   // per-row logit without biases, and gradient coefficient
	srcGrad []float32   // S_u gradient, accumulated over the whole block
}

func newSGNSBlock(store *embed.Store, negatives int, gamma float32, biases bool) *sgnsBlock {
	n := 1 + negatives
	return &sgnsBlock{
		store: store, gamma: gamma, biases: biases,
		targets: make([]int32, 0, n),
		rows:    make([][]float32, n),
		z:       make([]float32, n),
		g:       make([]float32, n),
		srcGrad: make([]float32, store.Dim()),
	}
}

// step applies the block's examples for center u: label 1 for targets[0],
// label 0 for the rest. It adds each example's Eq. 4 term, read from the
// vecmath.FastLogSigmoid table, to *loss in example order. Every parameter
// element sees the float32 operations of updating the examples one by one,
// in the same order:
//
//   - S_u is read by every logit and every T update, and updated once at the
//     end by the accumulated gradient, exactly as per example;
//   - each logit adds the running b_u, updated in example order; it is kept
//     in a local and stored once at the end, since no target bias aliases it
//     (biasS and biasT are separate arrays);
//   - within a sub-block the T rows are distinct, so computing all logits
//     first (vecmath.DotRows) and then sweeping all updates coordinate by
//     coordinate (vecmath.AxpyRows) reorders only independent operations.
//
// A target that repeats one already in the sub-block starts a new
// sub-block, so its logit reads the earlier update of its T row and bias.
// The first sub-block ends at split, found as the negatives were drawn;
// subBlockEnd finds where each later one ends.
func (b *sgnsBlock) step(u int32, loss *float64) {
	su := b.store.SourceVec(u)
	biasU := b.store.BiasSource(u)
	bu := *biasU
	for lo := 0; lo < len(b.targets); {
		hi := len(b.targets)
		if lo > 0 {
			hi = subBlockEnd(b.targets, lo)
		} else if b.split > 0 {
			hi = b.split
		}
		targets := b.targets[lo:hi]
		rows, z, g := b.rows[:len(targets)], b.z[:len(targets)], b.g[:len(targets)]
		for k, x := range targets {
			rows[k] = b.store.TargetVec(x)
		}
		vecmath.DotRows(su, rows, z)
		for k, x := range targets {
			label := float32(0)
			if lo+k == 0 {
				label = 1
			}
			zk := z[k]
			if b.biases {
				zk += bu + *b.store.BiasTarget(x)
			}
			gk := (label - vecmath.FastSigmoid(zk)) * b.gamma
			g[k] = gk
			if b.biases {
				bu += gk
				*b.store.BiasTarget(x) += gk
			}
			if label == 1 {
				*loss += float64(vecmath.FastLogSigmoid(zk))
			} else {
				*loss += float64(vecmath.FastLogSigmoid(-zk))
			}
		}
		// The first sub-block starts the S_u gradient from zero, the last
		// applies it.
		vecmath.AxpyRows(g, rows, su, b.srcGrad, lo == 0, hi == len(b.targets))
		lo = hi
	}
	*biasU = bu
}

// subBlockEnd returns the end of the sub-block that starts at lo: the index
// of the first target repeating one in targets[lo:hi], or len(targets).
func subBlockEnd(targets []int32, lo int) int {
	for hi := lo + 1; hi < len(targets); hi++ {
		if slices.Contains(targets[lo:hi], targets[hi]) {
			return hi
		}
	}
	return len(targets)
}

// maxNegativeDraws bounds sampleNegative's rejection loop.
const maxNegativeDraws = 8

// sampleNegative draws a negative example for the positive pair (u,v),
// resampling when the table returns the center or the positive user itself.
// Skipping such collisions outright (the old behavior) silently trained
// tuples near high-frequency users on fewer than cfg.NegativeSamples
// negatives; bounded resampling keeps the count honest without risking an
// unbounded loop on degenerate (near-single-user) tables.
func sampleNegative(neg *rng.UnigramTable, r *rng.RNG, u, v int32) (int32, bool) {
	for i := 0; i < maxNegativeDraws; i++ {
		if w := neg.Sample(r); w != v && w != u {
			return w, true
		}
	}
	return 0, false
}
