package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
// the number of completed epochs and the parameters in user order; what it
// writes there goes back into training. Tests use it to inject faults
// (e.g. NaN parameters) at epoch boundaries.
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
// when it is non-nil.
func trainOnLog(ctx context.Context, g *graph.Graph, log *actionlog.Log, cfg Config, resume *checkpoint.State) (*Result, error) {
	root := rng.New(cfg.Seed)
	corpus, ctxTime := generateCorpus(ctx, g, log, cfg, root.Split())
	return trainOnCorpus(ctx, log.NumUsers(), corpus, cfg, root, ctxTime, resume)
}

// TrainOnCorpus fits the embeddings to an already-generated corpus. It is
// the entry point for callers that build influence contexts themselves —
// the citation case study trains directly on first-order influence pairs
// this way. During the call the contexts hold rows of the pass's working
// copy of the parameters in place of user ids (see newStrata), so nothing
// else may read the corpus meanwhile, and no two tuples may share context
// storage. However the call ends — returning, canceled, or unwound by a
// panic — every context holds its user ids again, reordered so that
// targets of one block lie together; training again on the reordered
// corpus gives the same model.
func TrainOnCorpus(numUsers int32, corpus *Corpus, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if int32(len(corpus.ContextFreq)) != numUsers {
		return nil, fmt.Errorf("core: corpus frequency table covers %d users, want %d", len(corpus.ContextFreq), numUsers)
	}
	return trainOnCorpus(context.Background(), numUsers, corpus, cfg, rng.New(cfg.Seed), 0, nil)
}

// trainOnCorpus is the shared SGD phase of Algorithm 2 (lines 9–17),
// wrapped in the fault-tolerance layer: cooperative cancellation, periodic
// atomic checkpoints, and divergence detection with rollback recovery.
//
// The passes train a block-major working copy of the parameters
// (blockParams), which replaces the user-order store for the whole call.
// It is initialized in place (warm start included), filled from a resumed
// checkpoint or a rollback snapshot, and re-initialized in place when a
// divergence finds no snapshot. User-order values are drained from it only
// where something reads them: the checkpoint and rollback snapshot,
// testAfterEpoch and the returned model; the divergence probe reads the
// copy itself.
//
// Each pass is an "epoch" child span of ctx's span, and checkpoint writes
// and divergence recoveries are events on ctx's span. A pass cut by
// cancellation ends its span "canceled"; a panic unwinding through an open
// one (the streaming pipeline's injected crashes) ends it "aborted". With
// no span in ctx, none of this allocates or records anything.
func trainOnCorpus(ctx context.Context, numUsers int32, corpus *Corpus, cfg Config, root *rng.RNG, ctxTime time.Duration, resume *checkpoint.State) (*Result, error) {
	if w := cfg.WarmStart; w != nil && (w.Dim() != cfg.Dim || w.NumUsers() > numUsers) {
		return nil, fmt.Errorf("core: warm start: a %dx%d store does not fit %d users x K=%d", w.NumUsers(), w.Dim(), numUsers, cfg.Dim)
	}
	st, err := newStrata(corpus, cfg.NegativePower)
	if err != nil {
		return nil, fmt.Errorf("core: indexing the corpus: %w", err)
	}
	defer st.restore(corpus.Tuples)
	p := newBlockParams(st, cfg.Dim)
	p.init(root.Split(), cfg.WarmStart)

	res := &Result{
		Model:             &Model{Config: cfg},
		ContextGeneration: ctxTime,
		NumTuples:         len(corpus.Tuples),
		NumPositives:      corpus.NumPositives,
	}
	if len(corpus.Tuples) == 0 {
		// Nothing to learn from (empty or influence-free log): return the
		// random-initialized model rather than failing, mirroring how the
		// paper's method degrades on propagation-free data.
		res.Model.Store = p.store()
		cfg.emit(trainer.Event{Kind: trainer.EventTrainStart, Epochs: cfg.Iterations})
		cfg.emit(trainer.Event{Kind: trainer.EventTrainEnd})
		return res, nil
	}

	sgdRNG := root.Split() // one draw per pass keys every cell's stream
	orderRNG := root.Split()
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
		p.fill(resume.Store)
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
		snapStore = resume.Store
		snap = resume
	}
	cfg.emit(trainer.Event{
		Kind: trainer.EventTrainStart, Epoch: epoch + 1, Epochs: cfg.Iterations,
		NumTuples: res.NumTuples, NumPositives: res.NumPositives,
	})
	parent := obs.SpanFromContext(ctx)
	var span *obs.Span // the open epoch span
	defer func() { span.EndWith("aborted") }()

	// sync refreshes the in-memory rollback snapshot, draining the working
	// copy into snapStore, which only the snapshot it replaces referenced,
	// and writes it as a durable checkpoint when one is configured. Only
	// called at healthy epoch boundaries.
	sync := func() error {
		if snapStore == nil {
			snapStore = p.store()
		} else {
			p.drain(snapStore)
		}
		cp := &checkpoint.State{
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
			Store:      snapStore,
		}
		for i, e := range res.Epochs {
			cp.EpochLoss[i] = e.Loss
			cp.EpochNanos[i] = int64(e.Duration)
		}
		if cfg.CheckpointPath != "" {
			if err := checkpoint.SaveFile(cfg.CheckpointPath, cp); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			if parent != nil {
				parent.Event("checkpoint_written", map[string]any{"path": cfg.CheckpointPath})
			}
			cfg.emit(trainer.Event{Kind: trainer.EventCheckpointWritten, Epoch: epoch, CheckpointPath: cfg.CheckpointPath})
		}
		snap = cp
		return nil
	}
	// rollback restores the last snapshot; the halved lrScale and consumed
	// retry deliberately survive it.
	rollback := func(s *checkpoint.State) {
		p.fill(s.Store)
		root.SetState(s.Root)
		orderRNG.SetState(s.Order)
		sgdRNG.SetState(s.Workers[0])
		epoch = s.EpochsDone
		res.Epochs = res.Epochs[:epoch]
	}
	// finish hands back the model in user order.
	finish := func(canceled bool) (*Result, error) {
		res.Model.Store = p.store()
		res.Canceled = canceled
		cfg.emit(trainer.Event{Kind: trainer.EventTrainEnd, Epochs: epoch, Canceled: canceled})
		return res, nil
	}

	done := ctx.Done()
	for epoch < cfg.Iterations {
		if ctx.Err() != nil {
			// Caught at an epoch boundary: the store is consistent, so a
			// final checkpoint preserves all completed progress.
			if cfg.CheckpointPath != "" && epoch > 0 {
				if err := sync(); err != nil {
					return nil, err
				}
			}
			return finish(true)
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
		totals := sgdPass(done, p, corpus.Tuples, order, st, cfg, gamma, sgdRNG)
		if ctx.Err() != nil {
			// Canceled mid-pass: the pass stopped early, the store holds a
			// usable partial update but not an epoch boundary, so the pass
			// is neither recorded nor checkpointed.
			span.EndWith("canceled")
			return finish(true)
		}
		stat := EpochStat{Duration: time.Since(t0)}
		if totals.Examples > 0 {
			stat.Loss = totals.Loss / float64(totals.Examples)
		}
		res.Epochs = append(res.Epochs, stat)
		epoch++
		perSec := 0.0
		if s := stat.Duration.Seconds(); s > 0 {
			perSec = float64(totals.Examples) / s
		}
		if span != nil {
			span.SetAttr("loss", stat.Loss)
			span.SetAttr("examples_per_sec", perSec)
			span.End()
		}
		cfg.emit(trainer.Event{
			Kind: trainer.EventEpochEnd, Epoch: epoch, Loss: stat.Loss,
			DurationSeconds: stat.Duration.Seconds(), ExamplesPerSec: perSec,
			LearningRate: float64(gamma), Examples: totals.Examples, Skips: totals.Skips,
		})
		if testAfterEpoch != nil {
			s := p.store()
			testAfterEpoch(epoch, s)
			p.fill(s)
		}
		if cfg.MaxDivergenceRetries >= 0 && diverged(stat.Loss, p) {
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
				// part of the starting point, so it is reapplied.
				p.init(root.Split(), cfg.WarmStart)
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
	return finish(false)
}

// diverged reports whether the epoch left the model in a non-finite state:
// a NaN/Inf mean loss, or NaN/Inf in a strided sample of the parameters
// (the loss sums over every touched row, so the probe is a second line of
// defense for corners the pass did not visit).
func diverged(loss float64, p *blockParams) bool {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return true
	}
	return p.sampleNonFinite(4096)
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

// cancelCheckTuples is how many tuples a cell scans between polls of the
// done channel: often enough that Ctrl-C stops a pass at once, rarely
// enough to be invisible in profiles.
const cancelCheckTuples = 256

// sgdBlocks is B, the number of user blocks of the stratified SGD pass. It
// is a constant, not a knob and not derived from Config.Workers or the
// host, because a run's bits depend on it. The cells of one sub-epoch are
// what goroutines can run at once, so at most B workers have work.
const sgdBlocks = 2

// sgdPassVersion identifies the SGD pass in the configuration fingerprint.
// Version 1, the serial pass, went into the fingerprint as "workers=1";
// version 2 is the stratified pass over sgdBlocks blocks. A checkpoint
// written by another pass holds parameters this one did not train, so
// Resume refuses it with ErrCheckpointMismatch. Bump it with any change to
// the pass's bits that sgdBlocks does not show, blockChunk included.
const sgdPassVersion = 2

// blockChunk is how many consecutive users always share a block. It was
// chosen when the pass trained the user-order arrays, where 32 users'
// biases fill one aligned pair of 64-byte cache lines and their rows fill
// whole pairs: with 16-user chunks, two workers reached 1.22–1.30x the
// serial pass's speed where 32-user chunks reached 1.43–1.51x. The pass
// now trains blockParams, whose blocks own whole pages at any chunk size,
// but the chunk decides which users form a block, and so the bits.
const blockChunk = 32

// userBlock returns u's block: a fixed (Fibonacci) hash of u's chunk. It
// depends on u alone, so it stays put as the user count grows.
func userBlock(u int32) int {
	return int((uint64(uint32(u)/blockChunk) * 0x9e3779b97f4a7c15 >> 32) * sgdBlocks >> 32)
}

// strata indexes a corpus for the stratified pass: the block of every
// tuple's center, where each block's targets lie in the tuple's context,
// every user's row in its block and back, and every block's negative
// table. It holds B+1 small integers per tuple and two per user beside the
// tables.
type strata struct {
	centers []uint8               // userBlock of each tuple's center
	ends    []int32               // tuple k's block-j targets end at Context[ends[k*sgdBlocks+j]]
	rows    []int32               // user u's row in block userBlock(u)
	users   [sgdBlocks][]int32    // block j's users in id order: row r is users[j][r]
	neg     [sgdBlocks]*rng.Alias // draws rows of the block; nil for a block with no users
}

// newStrata indexes c in one linear pass over its users and one over its
// tuples. Block j's rows are its users in id order, and its table draws
// them by the unigram weights and floor of every user (rng.UnigramWeights
// over c.ContextFreq and power), restricted to the block. A block with no
// users gets no table: no positive targets it, so no cell draws from it.
//
// It reorders each context in place so that the targets of each block lie
// together, in block order, each block's in their original order, and
// rewrites each target to its row in its block: a cell then reads only its
// own targets, in the order the context gave them, as rows of its target
// block, and no other order in a context is read by training. restore
// gives the contexts their user ids back. Contexts that share storage
// would be rewritten twice, so newStrata refuses them before it writes.
func newStrata(c *Corpus, power float64) (*strata, error) {
	w, err := rng.UnigramWeights(c.ContextFreq, power)
	if err != nil {
		return nil, err
	}
	st := &strata{
		centers: make([]uint8, len(c.Tuples)),
		ends:    make([]int32, sgdBlocks*len(c.Tuples)),
		rows:    make([]int32, len(w)),
	}
	var weights [sgdBlocks][]float64
	for u, x := range w {
		j := userBlock(int32(u))
		st.rows[u] = int32(len(st.users[j]))
		st.users[j] = append(st.users[j], int32(u))
		weights[j] = append(weights[j], x)
	}
	for j := range st.neg {
		if len(st.users[j]) == 0 {
			continue
		}
		if st.neg[j], err = rng.NewAlias(weights[j]); err != nil {
			return nil, err
		}
	}
	if k, l, ok := sharedContexts(c.Tuples); ok {
		return nil, fmt.Errorf("tuples %d and %d share context storage", k, l)
	}
	var scratch []int32
	for k := range c.Tuples {
		t := &c.Tuples[k]
		st.centers[k] = uint8(userBlock(t.Center))
		ends := st.ends[k*sgdBlocks : (k+1)*sgdBlocks]
		for _, v := range t.Context {
			ends[userBlock(v)]++
		}
		var next [sgdBlocks]int32 // where each block's next target goes
		for j := 1; j < sgdBlocks; j++ {
			ends[j] += ends[j-1]
			next[j] = ends[j-1]
		}
		scratch = append(scratch[:0], t.Context...)
		for _, v := range scratch {
			j := userBlock(v)
			t.Context[next[j]] = st.rows[v]
			next[j]++
		}
	}
	return st, nil
}

// restore gives every context of tuples, the corpus st indexes, its user
// ids back in place of the rows newStrata wrote, leaving the contexts in
// block order.
func (st *strata) restore(tuples []Tuple) {
	for k := range tuples {
		ctx, lo := tuples[k].Context, int32(0)
		for j, hi := range st.ends[k*sgdBlocks : (k+1)*sgdBlocks] {
			users := st.users[j]
			for x := lo; x < hi; x++ {
				ctx[x] = users[ctx[x]]
			}
			lo = hi
		}
	}
}

// sharedContexts reports two tuples whose contexts overlap in memory, if
// any: the contexts sorted by address must each end before the next
// begins.
func sharedContexts(tuples []Tuple) (k, l int, ok bool) {
	type span struct {
		lo, hi uintptr
		tuple  int
	}
	spans := make([]span, 0, len(tuples))
	for k, t := range tuples {
		if len(t.Context) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(t.Context)))
			spans = append(spans, span{lo, lo + uintptr(len(t.Context))*4, k})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for x := 1; x < len(spans); x++ {
		if spans[x].lo < spans[x-1].hi {
			return spans[x-1].tuple, spans[x].tuple, true
		}
	}
	return 0, 0, false
}

// pageFloats is how many float32 fill a 4 KB page.
const pageFloats = 4096 / 4

// blockParams is the stratified pass's working copy of the parameters,
// block-major: block j's S rows, T rows, b and b̃ hold its users in id
// order (row r is st.users[j][r]), and each of these 4·B arrays starts on
// a 4 KB page of one allocation, padded by less than a page, so no page
// holds parameters of two blocks. The cells of a sub-epoch therefore
// write disjoint pages: with both blocks' 32-user chunks interleaved in
// the pages of user-order arrays, a cell run beside another took
// 1.1–1.5x its time alone, most likely from the L2 streamer prefetching,
// within a page, lines the other cell writes.
type blockParams struct {
	k            int
	st           *strata              // whose blocks p lays out
	s, t, bs, bt [sgdBlocks][]float32 // by block: S rows, T rows, b, b̃
}

// newBlockParams allocates a zero working copy for st's blocks at
// dimension k.
func newBlockParams(st *strata, k int) *blockParams {
	p := &blockParams{k: k, st: st}
	paged := func(floats int) int { return (floats + pageFloats - 1) / pageFloats * pageFloats }
	total := 0
	for _, users := range st.users {
		total += 2*paged(len(users)*k) + 2*paged(len(users))
	}
	mem := make([]float32, total+pageFloats-1)
	mem = mem[(pageFloats-int(uintptr(unsafe.Pointer(unsafe.SliceData(mem)))%4096/4))%pageFloats:]
	take := func(floats int) []float32 {
		s := mem[:floats:floats]
		mem = mem[paged(floats):]
		return s
	}
	for j, users := range st.users {
		n := len(users)
		p.s[j], p.t[j], p.bs[j], p.bt[j] = take(n*k), take(n*k), take(n), take(n)
	}
	return p
}

// init sets p to Algorithm 2 line 1's starting point: what
// embed.Store.Init draws from r (every coordinate of S, then of T, in user
// order, from U[-1/K, 1/K]; zero biases), with the users of warm, when not
// nil, copied over it. The warm start overwrites known users after the
// full random draw, so r advances identically with or without it and new
// users (and every later draw) match a cold run bit for bit. Drawing into
// p keeps a second, user-order store from being live beside it.
func (p *blockParams) init(r *rng.RNG, warm *embed.Store) {
	k := p.k
	scale := 1 / float32(k)
	for _, a := range [2]*[sgdBlocks][]float32{&p.s, &p.t} {
		for u, row := range p.st.rows {
			dst := a[userBlock(int32(u))][int(row)*k:][:k]
			for x := range dst {
				dst[x] = (2*r.Float32() - 1) * scale
			}
		}
	}
	for j := range p.bs {
		clear(p.bs[j])
		clear(p.bt[j])
	}
	if warm != nil {
		p.fill(warm)
	}
}

// fill copies into p the parameters of every user that the user-order
// store src holds: all of them from a store of p's shape, the known users
// from a warm start.
func (p *blockParams) fill(src *embed.Store) {
	k := p.k
	for j, users := range p.st.users {
		for r, u := range users {
			if u >= src.NumUsers() {
				break // users are in id order
			}
			copy(p.s[j][r*k:(r+1)*k], src.SourceVec(u))
			copy(p.t[j][r*k:(r+1)*k], src.TargetVec(u))
			p.bs[j][r] = *src.BiasSource(u)
			p.bt[j][r] = *src.BiasTarget(u)
		}
	}
}

// drain copies every parameter of p into the user-order store dst.
func (p *blockParams) drain(dst *embed.Store) {
	k := p.k
	for j, users := range p.st.users {
		for r, u := range users {
			copy(dst.SourceVec(u), p.s[j][r*k:(r+1)*k])
			copy(dst.TargetVec(u), p.t[j][r*k:(r+1)*k])
			*dst.BiasSource(u) = p.bs[j][r]
			*dst.BiasTarget(u) = p.bt[j][r]
		}
	}
}

// store returns p's parameters as a new user-order store.
func (p *blockParams) store() *embed.Store {
	s, _ := embed.New(int32(len(p.st.rows)), p.k) // a shape trainOnCorpus already made
	p.drain(s)
	return s
}

// sampleNonFinite is embed.Store.SampleNonFinite of p's parameters in user
// order: it probes the same strided coordinates of S, T, b and b̃, each
// where p keeps it.
func (p *blockParams) sampleNonFinite(maxPerBlock int) bool {
	n := len(p.st.rows)
	for _, a := range []struct {
		blocks *[sgdBlocks][]float32
		width  int
	}{{&p.s, p.k}, {&p.t, p.k}, {&p.bs, 1}, {&p.bt, 1}} {
		stride := n*a.width/maxPerBlock + 1
		for i := 0; i < n*a.width; i += stride {
			u := i / a.width
			f := float64(a.blocks[userBlock(int32(u))][int(p.st.rows[u])*a.width+i%a.width])
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return true
			}
		}
	}
	return false
}

// sgdPass is one pass of Algorithm 2's SGD (lines 10–16), stratified
// (DSGD; Gemulla et al., KDD 2011), over the working copy p of tuples that
// newStrata indexed as st. The positive (u, v) belongs to cell
// (userBlock(u), userBlock(v)). The pass runs sgdBlocks sub-epochs, and
// sub-epoch s runs the cells (i, (i+s) mod B): their centers lie in
// distinct blocks and so do their targets, and each negative comes from
// the cell's target block (Lerer et al., SysML 2019), so the cells of a
// sub-epoch read and write disjoint pages of p. Up to cfg.Workers
// goroutines take them in any order, with no locks. Cell c draws from
// rng.Keyed(base, c), base being one draw from r, and the cells' totals
// are summed in cell order, so the parameters, the totals and r end up the
// same at any worker count. The golden test and
// TestBlockStepMatchesPerExample pin the result bitwise to updating the
// examples one by one in this order.
func sgdPass(done <-chan struct{}, p *blockParams, tuples []Tuple, order []int, st *strata, cfg Config, gamma float32, r *rng.RNG) trainer.Totals {
	base := r.Uint64()
	workers := make([]*cellWorker, min(trainer.Workers(cfg.Workers), sgdBlocks))
	for w := range workers {
		workers[w] = &cellWorker{b: newSGNSBlock(p.k, cfg.NegativeSamples, gamma, !cfg.DisableBiases)}
	}
	var cells [sgdBlocks * sgdBlocks]trainer.Totals
	for s := 0; s < sgdBlocks; s++ {
		var next atomic.Int32
		work := func(w *cellWorker) {
			for i := int(next.Add(1)) - 1; i < sgdBlocks; i = int(next.Add(1)) - 1 {
				j := (i + s) % sgdBlocks
				c := i*sgdBlocks + j
				w.r.ReseedKeyed(base, uint64(c))
				cells[c] = w.run(done, tuples, order, st, p, i, j)
			}
		}
		var wg sync.WaitGroup
		for _, w := range workers[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		work(workers[0])
		wg.Wait()
	}
	var tot trainer.Totals
	for _, c := range cells {
		tot.Loss += c.Loss
		tot.Examples += c.Examples
		tot.Skips += c.Skips
	}
	return tot
}

// cellWorker is one goroutine's state in sgdPass: the block step's
// scratch, the stream of the cell it runs and that cell's running totals.
// All three are written at every step, so the padding keeps them off any
// cache line another worker writes; newSGNSBlock pads its slices the same
// way. Packed together, two workers ran no faster than one.
type cellWorker struct {
	_   [64]byte
	b   sgnsBlock
	r   rng.RNG
	tot trainer.Totals
	_   [64]byte
}

// run trains cell (i, j) of p: the positives whose center is in block i
// and whose target is in block j, in the order of the shuffled tuples and
// of each context, each as one block step over the positive and its
// negatives, drawn from w.r and block j's table. The contexts already hold
// rows of block j; each tuple's center is mapped to its row once. It polls
// done every cancelCheckTuples tuples and returns the totals so far once
// done is closed. Loss sums the table estimate of the Eq. 4 objective;
// Examples counts positives; Skips counts negatives lost to
// sampleNegative's bound.
func (w *cellWorker) run(done <-chan struct{}, tuples []Tuple, order []int, st *strata, p *blockParams, i, j int) trainer.Totals {
	b, r, neg := &w.b, &w.r, st.neg[j]
	b.cell(p, i, j)
	negatives := cap(b.targets) - 1
	w.tot = trainer.Totals{}
	for k, ti := range order {
		if k%cancelCheckTuples == 0 {
			select {
			case <-done:
				return w.tot
			default:
			}
		}
		if int(st.centers[ti]) != i {
			continue
		}
		t := &tuples[ti]
		u := st.rows[t.Center]
		// A negative may not be the center, which is a row of the target
		// block only when the two blocks are one.
		uj := int32(-1)
		if i == j {
			uj = u
		}
		lo := int32(0)
		if j > 0 {
			lo = st.ends[ti*sgdBlocks+j-1]
		}
		for _, v := range t.Context[lo:st.ends[ti*sgdBlocks+j]] {
			// The draws read no parameters, so drawing every negative
			// before any update consumes the stream in the same order as
			// drawing each one just before its own update. A negative that
			// repeats an earlier one ends the first sub-block; the positive
			// is never drawn again.
			b.targets = append(b.targets[:0], v)
			b.split = 0
			for s := 0; s < negatives; s++ {
				x, ok := sampleNegative(neg, r, uj, v)
				if !ok {
					w.tot.Skips++
					continue
				}
				if b.split == 0 && slices.Contains(b.targets[1:], x) {
					b.split = len(b.targets)
				}
				b.targets = append(b.targets, x)
			}
			b.step(u, &w.tot.Loss)
			w.tot.Examples++
		}
	}
	return w.tot
}

// sgnsBlock is the SGD block step: one positive target and its negatives,
// all updated against the same S_u row. It reads and writes the
// parameters of one cell: S rows and b of the center block, T rows and b̃
// of the target block, indexed by row. Its other slices are scratch sized
// for 1+|N| targets and reused, so a step allocates nothing.
type sgnsBlock struct {
	k      int
	gamma  float32
	biases bool

	s, bs, t, bt []float32 // the cell's S rows, b, T rows and b̃

	targets []int32     // rows of the positive first, then of the negatives drawn
	split   int         // index of the first negative repeating an earlier one, or 0 if none
	rows    [][]float32 // T rows of the current sub-block
	z, g    []float32   // per-row logit without biases, and gradient coefficient
	srcGrad []float32   // S_u gradient, accumulated over the whole block
}

// newSGNSBlock sizes a block step's scratch for 1+negatives targets at
// dimension k. Every slice is written at every step, so none shares a
// cache line with another object: each allocation has a cache line of
// padding on each side. z, g and srcGrad share one allocation, which keeps
// them at distinct offsets within a page: as the first values of three
// fresh allocations they sat at one offset, and a pass ran about a tenth
// slower, most likely from stores to one stalling loads from another (4K
// aliasing).
func newSGNSBlock(k, negatives int, gamma float32, biases bool) sgnsBlock {
	n := 1 + negatives
	f := lineAlone[float32](2*n + k)
	return sgnsBlock{
		k: k, gamma: gamma, biases: biases,
		targets: lineAlone[int32](n)[:0],
		rows:    lineAlone[[]float32](n),
		z:       f[:n:n],
		g:       f[n : 2*n : 2*n],
		srcGrad: f[2*n:],
	}
}

// cell points the step at the parameters of cell (i, j) of p.
func (b *sgnsBlock) cell(p *blockParams, i, j int) {
	b.s, b.bs, b.t, b.bt = p.s[i], p.bs[i], p.t[j], p.bt[j]
}

// lineAlone returns n zero values with a 64-byte cache line of padding on
// each side, so no cache line that holds them holds any other object.
func lineAlone[T any](n int) []T {
	var zero T
	pad := (64 + int(unsafe.Sizeof(zero)) - 1) / int(unsafe.Sizeof(zero))
	return make([]T, n+2*pad)[pad : pad+n : pad+n]
}

// step applies the block's examples for the center at row u of the cell's
// center block: label 1 for targets[0], label 0 for the rest. It adds each
// example's Eq. 4 term, read from the vecmath.FastLogSigmoid table, to
// *loss in example order. Every parameter element sees the float32
// operations of updating the examples one by one, in the same order:
//
//   - S_u is read by every logit and every T update, and updated once at the
//     end by the accumulated gradient, exactly as per example;
//   - each logit adds the running b_u, updated in example order; it is kept
//     in a local and stored once at the end, since no target bias aliases it
//     (b and b̃ are separate arrays);
//   - within a sub-block the T rows are distinct, so computing all logits
//     first (vecmath.DotRows) and then sweeping all updates coordinate by
//     coordinate (vecmath.AxpyRows) reorders only independent operations.
//
// A target that repeats one already in the sub-block starts a new
// sub-block, so its logit reads the earlier update of its T row and bias.
// The first sub-block ends at split, found as the negatives were drawn;
// subBlockEnd finds where each later one ends.
func (b *sgnsBlock) step(u int32, loss *float64) {
	dim := b.k
	su := b.s[int(u)*dim : int(u)*dim+dim : int(u)*dim+dim]
	biasU := &b.bs[u]
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
			rows[k] = b.t[int(x)*dim : int(x)*dim+dim : int(x)*dim+dim]
		}
		vecmath.DotRows(su, rows, z)
		for k, x := range targets {
			label := float32(0)
			if lo+k == 0 {
				label = 1
			}
			zk := z[k]
			if b.biases {
				zk += bu + b.bt[x]
			}
			gk := (label - vecmath.FastSigmoid(zk)) * b.gamma
			g[k] = gk
			if b.biases {
				bu += gk
				b.bt[x] += gk
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

// sampleNegative draws a negative example for the positive pair (u,v) from
// the target block's table, resampling when it returns the center or the
// positive user itself.
// Skipping such collisions outright (the old behavior) silently trained
// tuples near high-frequency users on fewer than cfg.NegativeSamples
// negatives; bounded resampling keeps the count honest without risking an
// unbounded loop on degenerate (near-single-user) tables.
func sampleNegative(neg *rng.Alias, r *rng.RNG, u, v int32) (int32, bool) {
	for i := 0; i < maxNegativeDraws; i++ {
		if w := neg.Sample(r); w != v && w != u {
			return w, true
		}
	}
	return 0, false
}
