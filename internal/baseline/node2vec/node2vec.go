// Package node2vec implements the node2vec baseline (Grover & Leskovec,
// KDD 2016): network embedding from second-order biased random walks
// trained with window skip-gram and negative sampling.
//
// As the paper stresses, node2vec sees only the social network structure —
// neither the action log nor influence order — which is why it trails the
// log-aware methods in Tables II and III.
package node2vec

import (
	"context"
	"fmt"

	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
	"inf2vec/internal/trainer"
	"inf2vec/internal/vecmath"
	"inf2vec/internal/walk"
)

// Config controls node2vec training. Zero values select the node2vec
// paper's defaults.
type Config struct {
	// Dim is the embedding dimension. Zero selects 50 (matching the
	// comparison's K).
	Dim int
	// WalksPerNode is r, the number of walks started at every node. Zero
	// selects 10.
	WalksPerNode int
	// WalkLength is l. Zero selects 80.
	WalkLength int
	// Window is the skip-gram context radius k. Zero selects 10.
	Window int
	// P and Q are the return and in-out bias parameters. Zero selects 1.
	P float64
	Q float64
	// NegativeSamples per positive. Zero selects 5.
	NegativeSamples int
	// LearningRate is the SGD step size. Zero selects 0.025 (word2vec's
	// default).
	LearningRate float64
	// Epochs over the walk corpus. Zero selects 3.
	Epochs int
	// Seed drives walks, sampling and initialization.
	Seed uint64
	// Workers bounds walk-generation/gradient parallelism. Zero or one runs
	// single-threaded; results are bitwise identical at any worker count
	// (the engine's deterministic prepare/commit rounds).
	Workers int
	// Telemetry, when non-nil, receives per-epoch training events.
	Telemetry func(trainer.Event)
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 50
	}
	if cfg.WalksPerNode == 0 {
		cfg.WalksPerNode = 10
	}
	if cfg.WalkLength == 0 {
		cfg.WalkLength = 80
	}
	if cfg.Window == 0 {
		cfg.Window = 10
	}
	if cfg.P == 0 {
		cfg.P = 1
	}
	if cfg.Q == 0 {
		cfg.Q = 1
	}
	if cfg.NegativeSamples == 0 {
		cfg.NegativeSamples = 5
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.025
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 3
	}
	if cfg.Dim < 0 || cfg.WalksPerNode < 0 || cfg.WalkLength < 0 || cfg.Window < 0 ||
		cfg.P < 0 || cfg.Q < 0 || cfg.NegativeSamples < 0 || cfg.LearningRate < 0 || cfg.Epochs < 0 {
		return cfg, fmt.Errorf("node2vec: negative hyperparameter in %+v", cfg)
	}
	return cfg, nil
}

// Model is a trained node2vec embedding. Score(u,v) is the skip-gram logit
// emb_u · ctx_v (stored as source/target rows; biases remain zero).
type Model struct {
	Store *embed.Store
}

// Score returns the learned affinity of (u,v).
func (m *Model) Score(u, v int32) float64 { return m.Store.Score(u, v) }

// Result is the outcome of TrainContext.
type Result struct {
	Model *Model
	// Epochs has one entry per completed pass; Skips counts negative draws
	// abandoned after bounded resampling.
	Epochs []trainer.EpochStat
	// Canceled reports an early stop via context cancellation; Model holds
	// the best-so-far embedding.
	Canceled bool
}

// Train embeds the graph. It is TrainContext without cancellation,
// returning just the model.
func Train(g *graph.Graph, cfg Config) (*Model, error) {
	res, err := TrainContext(context.Background(), g, cfg)
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}

// walkBlock is the engine round size in walks. Small enough that gradients
// are at most a few hundred pairs stale, large enough to amortize the
// round barrier. Part of the determinism contract (see trainer.Pass.Block).
const walkBlock = 16

// TrainContext embeds the graph under a cancellation context. The walk
// corpus is regenerated every epoch and streamed straight into SGD, so
// memory stays O(block · walk length). One work unit is one walk; walks are
// prepared (walked, negatives sampled, gradient coefficients computed) in
// parallel and committed in deterministic order, so results are bitwise
// identical at any Workers value.
func TrainContext(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("node2vec: empty graph")
	}
	store, err := embed.New(g.NumNodes(), cfg.Dim)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	store.Init(root.Split())
	m := &Model{Store: store}

	// Negative-sampling distribution: unigram^0.75 over degree, the
	// stationary visit frequency proxy.
	counts := make([]int64, g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		counts[u] = int64(g.OutDegree(u) + g.InDegree(u))
	}
	neg, err := rng.NewUnigramTable(counts, 0.75)
	if err != nil {
		return nil, fmt.Errorf("node2vec: negative table: %w", err)
	}

	streamBase := root.Uint64()
	lr := float32(cfg.LearningRate)
	walker := &walk.Node2vec{G: g, P: cfg.P, Q: cfg.Q}

	// Each unit (one walk) runs the classic sequential skip-gram SGD against
	// a private overlay of the rows it touches, so the word2vec numerics —
	// each pair seeing the saturation effects of the previous one — are
	// preserved within a walk; only cross-walk staleness within one
	// walkBlock round remains. The serial commit is just one delta-add per
	// touched row, keeping the sequential fraction small.
	prepare := func(unit int, r *rng.RNG, a any) {
		sc := a.(*walkScratch)
		sc.reset(cfg.Dim)
		start := int32(unit / cfg.WalksPerNode)
		if g.OutDegree(start) == 0 {
			return
		}
		path := walker.Walk(start, cfg.WalkLength, r)
		walk.WindowPairs(path, cfg.Window, func(center, context int32) {
			su := sc.row(&sc.src, store.SourceVec, center)
			vecmath.Zero(sc.srcGrad)
			apply := func(x int32, label float32) {
				tx := sc.row(&sc.tgt, store.TargetVec, x)
				// Same fused serial kernels as the per-example SGD step:
				// one-accumulator logit order and a fused pair of gradient
				// writes (tx aliases the read operand legally), so the walk
				// trajectory is unchanged bitwise.
				z, sig := vecmath.DotSigmoid(su, tx)
				gc := (label - sig) * lr
				vecmath.AxpyTwo(gc, tx, sc.srcGrad, su, tx)
				if label == 1 {
					sc.loss += vecmath.LogSigmoid(float64(z))
				} else {
					sc.loss += vecmath.LogSigmoid(-float64(z))
				}
			}
			apply(context, 1)
			sc.positives++
			for s := 0; s < cfg.NegativeSamples; s++ {
				w, ok := sampleNegative(neg, r, center, context)
				if !ok {
					sc.skips++
					continue
				}
				apply(w, 0)
			}
			vecmath.Axpy(1, sc.srcGrad, su)
		})
	}
	// Commits stage each walk's row deltas into a round accumulator; the
	// end-of-round hook applies each row's mean delta. Rows touched by a
	// single walk get that walk's exact update; rows contested by several
	// walks of the round get their consensus move (local-SGD model
	// averaging), which keeps dense graphs stable where summing the
	// conflicting deltas would compound past saturation.
	acc := newRoundAccumulator(cfg.Dim)
	commit := func(unit int, a any, tot *trainer.Totals) {
		sc := a.(*walkScratch)
		for id, o := range sc.src {
			acc.add(&acc.src, id, o)
		}
		for id, o := range sc.tgt {
			acc.add(&acc.tgt, id, o)
		}
		tot.Loss += sc.loss
		tot.Examples += sc.positives
		tot.Skips += sc.skips
	}
	endRound := func(tot *trainer.Totals) {
		acc.apply(store.SourceVec, &acc.src)
		acc.apply(store.TargetVec, &acc.tgt)
	}

	run, err := trainer.Run(ctx, trainer.RunConfig{
		Method: "node2vec", Epochs: cfg.Epochs,
		LearningRate: func(int) float64 { return cfg.LearningRate },
		Telemetry:    cfg.Telemetry,
		Probe:        func() bool { return store.SampleNonFinite(4096) },
	}, func(done <-chan struct{}, epoch int) trainer.Totals {
		pass := trainer.Pass{
			Units:      int(g.NumNodes()) * cfg.WalksPerNode,
			Workers:    cfg.Workers,
			Block:      walkBlock,
			Seed:       trainer.StreamSeed(streamBase, uint64(epoch)),
			Shuffle:    true,
			NewScratch: func() any { return &walkScratch{} },
			Prepare:    prepare,
			Commit:     commit,
			EndRound:   endRound,
		}
		return pass.Run(done)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Model: m, Epochs: run.Epochs, Canceled: run.Canceled}, nil
}

// rowOverlay is a private working copy of one embedding row: cur is updated
// by the walk's SGD, init remembers the round-start value so commit can
// apply cur−init as a delta to the live row.
type rowOverlay struct {
	init []float32
	cur  []float32
}

// walkScratch is one walk's prepared update, recycled across rounds.
type walkScratch struct {
	src       map[int32]*rowOverlay
	tgt       map[int32]*rowOverlay
	free      []*rowOverlay // overlay recycling across rounds
	srcGrad   []float32     // word2vec-style per-pair S_u accumulator
	loss      float64
	positives int64
	skips     int64
}

func (sc *walkScratch) reset(dim int) {
	if sc.src == nil {
		sc.src = make(map[int32]*rowOverlay)
		sc.tgt = make(map[int32]*rowOverlay)
		sc.srcGrad = make([]float32, dim)
	}
	for id, o := range sc.src {
		sc.free = append(sc.free, o)
		delete(sc.src, id)
	}
	for id, o := range sc.tgt {
		sc.free = append(sc.free, o)
		delete(sc.tgt, id)
	}
	sc.loss = 0
	sc.positives = 0
	sc.skips = 0
}

// row returns the walk's working copy of row id, snapshotting the live value
// on first touch.
func (sc *walkScratch) row(m *map[int32]*rowOverlay, live func(int32) []float32, id int32) []float32 {
	if o, ok := (*m)[id]; ok {
		return o.cur
	}
	var o *rowOverlay
	if n := len(sc.free); n > 0 {
		o = sc.free[n-1]
		sc.free = sc.free[:n-1]
	} else {
		k := len(sc.srcGrad)
		o = &rowOverlay{init: make([]float32, k), cur: make([]float32, k)}
	}
	copy(o.init, live(id))
	copy(o.cur, o.init)
	(*m)[id] = o
	return o.cur
}

// accRow accumulates one row's deltas over a round: the summed per-walk
// moves and the number of walks that touched the row.
type accRow struct {
	sum []float32
	n   int32
}

// roundAccumulator gathers row deltas across one round's commits. Per-row
// accumulation follows commit (unit) order and per-row application is
// independent of other rows, so map iteration order cannot affect results.
type roundAccumulator struct {
	dim  int
	src  map[int32]*accRow
	tgt  map[int32]*accRow
	free []*accRow
}

func newRoundAccumulator(dim int) *roundAccumulator {
	return &roundAccumulator{
		dim: dim,
		src: make(map[int32]*accRow),
		tgt: make(map[int32]*accRow),
	}
}

// add folds one walk's overlay delta for a row into the round accumulator.
func (ra *roundAccumulator) add(m *map[int32]*accRow, id int32, o *rowOverlay) {
	a, ok := (*m)[id]
	if !ok {
		if n := len(ra.free); n > 0 {
			a = ra.free[n-1]
			ra.free = ra.free[:n-1]
			for i := range a.sum {
				a.sum[i] = 0
			}
			a.n = 0
		} else {
			a = &accRow{sum: make([]float32, ra.dim)}
		}
		(*m)[id] = a
	}
	for i := range a.sum {
		a.sum[i] += o.cur[i] - o.init[i]
	}
	a.n++
}

// apply folds each accumulated row's mean delta into the live parameters and
// empties the accumulator for the next round.
func (ra *roundAccumulator) apply(live func(int32) []float32, m *map[int32]*accRow) {
	for id, a := range *m {
		row := live(id)
		inv := 1 / float32(a.n)
		for i := range row {
			row[i] += a.sum[i] * inv
		}
		ra.free = append(ra.free, a)
		delete(*m, id)
	}
}

// maxNegativeDraws bounds sampleNegative's rejection loop.
const maxNegativeDraws = 8

// sampleNegative draws a negative for the pair (center, context), resampling
// when the table returns either endpoint. The old behavior skipped such
// collisions outright, silently shrinking the effective negative count near
// high-degree nodes; bounded resampling keeps the count honest, and
// exhaustion (degenerate near-single-node tables) is counted as a skip.
func sampleNegative(neg *rng.UnigramTable, r *rng.RNG, center, context int32) (int32, bool) {
	for i := 0; i < maxNegativeDraws; i++ {
		if w := neg.Sample(r); w != context && w != center {
			return w, true
		}
	}
	return 0, false
}
