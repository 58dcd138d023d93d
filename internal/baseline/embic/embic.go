// Package embic implements the Emb-IC baseline: the embedded cascade model
// of Bourigault, Lamprier & Gallinari (WSDM 2016), the state-of-the-art
// representation approach the paper compares against.
//
// Emb-IC keeps the Independent Cascade semantics but parameterizes each
// edge probability through user embeddings and Euclidean distance:
//
//	P_uv = σ(b − ‖ω_u − z_v‖²),
//
// with an emitter vector ω_u, a receiver vector z_v and a global offset b.
// Parameters are learned by the same EM scheme as the Saito estimator
// (responsibilities over potential influencers in the E-step), with the
// closed-form M-step replaced by one stochastic-gradient pass over the
// expected complete-data log-likelihood — successes weighted by their
// responsibilities plus failed trials — exactly the structure of [10]'s
// learning algorithm. As in the original, cascades are built from the
// observed adoption order; unlike Inf2vec, no user-interest channel exists
// and every update requires the EM responsibilities, which is what makes it
// slow (the paper's Figure 9).
//
// DESIGN.md documents this as an approximation of [10]: the original's
// per-cascade softmax source attribution is replaced by the Saito-style
// responsibility model the Inf2vec paper itself attributes to it ("the
// parameters are inferred by an EM algorithm similar to the algorithm
// [2]").
package embic

import (
	"context"
	"fmt"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
	"inf2vec/internal/trainer"
	"inf2vec/internal/vecmath"
)

// learningRate is the M-step SGD step size.
const learningRate = 0.05

// Config controls Emb-IC training.
type Config struct {
	// Dim is the embedding dimension (paper comparisons use the same K as
	// Inf2vec). Zero selects 50.
	Dim int
	// Iterations is the number of EM rounds. Zero selects 15.
	Iterations int
	// Seed drives initialization and example shuffling.
	Seed uint64
	// Workers bounds E-step/M-step parallelism. Zero or one runs
	// single-threaded; results are bitwise identical at any worker count.
	Workers int
	// Telemetry, when non-nil, receives per-EM-round training events.
	Telemetry func(trainer.Event)
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 50
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 15
	}
	if cfg.Dim < 0 || cfg.Iterations < 0 {
		return cfg, fmt.Errorf("embic: negative hyperparameter in %+v", cfg)
	}
	return cfg, nil
}

// Model is a trained embedded cascade model. It implements ic.EdgeProber.
type Model struct {
	// Store holds ω (source rows) and z (target rows).
	Store *embed.Store
	// Bias is the global offset b.
	Bias float64
	g    *graph.Graph
}

// Prob returns P_uv = σ(b − ‖ω_u − z_v‖²) for edges of the social graph and
// 0 otherwise (influence requires a real social link).
func (m *Model) Prob(u, v int32) float64 {
	if !m.g.HasEdge(u, v) {
		return 0
	}
	d := vecmath.SquaredDistance(m.Store.SourceVec(u), m.Store.TargetVec(v))
	return vecmath.Sigmoid(m.Bias - d)
}

// Score exposes the pre-sigmoid pair affinity b − ‖ω_u − z_v‖², usable as a
// latent pair score (e.g. for the Figure 6 visualization).
func (m *Model) Score(u, v int32) float64 {
	d := vecmath.SquaredDistance(m.Store.SourceVec(u), m.Store.TargetVec(v))
	return m.Bias - d
}

// exposure is one (source, target) influence opportunity.
type exposure struct {
	u, v int32
}

// Result is the outcome of TrainContext.
type Result struct {
	Model *Model
	// Epochs has one entry per completed EM round; Loss is the mean M-step
	// expected complete-data log-likelihood per exposure.
	Epochs []trainer.EpochStat
	// Canceled reports an early stop via context cancellation; Model holds
	// the best-so-far parameters.
	Canceled bool
}

// Train fits the embedded cascade model on the training log. It is
// TrainContext without cancellation, returning just the model.
func Train(g *graph.Graph, log *actionlog.Log, cfg Config) (*Model, error) {
	res, err := TrainContext(context.Background(), g, log, cfg)
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}

// Engine round geometry: the E-step processes groups in chunks of eChunk
// with eBlock chunks per round (responsibilities are read-only, so rounds
// only bound scheduling); the M-step commits mBlock units — success groups
// or failed trials — per round (small, since its commits write the
// embeddings its prepares read). All three are part of the determinism
// contract (see trainer.Pass).
const (
	eChunk = 128
	eBlock = 16
	mBlock = 64
)

// TrainContext fits the embedded cascade model under a cancellation
// context. Each EM round runs the E-step (responsibilities, prepared in
// parallel against the current embeddings) and one M-step SGD pass
// (exposure gradients prepared in parallel against round-start parameters,
// committed in deterministic shuffled order), so results are bitwise
// identical at any Workers value.
func TrainContext(ctx context.Context, g *graph.Graph, log *actionlog.Log, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if g.NumNodes() < log.NumUsers() {
		return nil, fmt.Errorf("embic: graph has %d nodes but log universe is %d", g.NumNodes(), log.NumUsers())
	}
	store, err := embed.New(log.NumUsers(), cfg.Dim)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	store.Init(root.Split())
	m := &Model{Store: store, Bias: 0, g: g}

	// Build success groups (per adoption, its potential influencers) and
	// failed trials, as in the Saito EM.
	var groups [][]exposure
	var failures []exposure
	log.Episodes(func(e *actionlog.Episode) {
		when := make(map[int32]float64, e.Len())
		for _, r := range e.Records {
			when[r.User] = r.Time
		}
		for _, r := range e.Records {
			u := r.User
			for _, v := range g.OutNeighbors(u) {
				if _, member := when[v]; !member {
					failures = append(failures, exposure{u, v})
				}
			}
		}
		for _, r := range e.Records {
			v := r.User
			var group []exposure
			for _, u := range g.InNeighbors(v) {
				if tu, ok := when[u]; ok && tu < r.Time {
					group = append(group, exposure{u, v})
				}
			}
			if len(group) > 0 {
				groups = append(groups, group)
			}
		}
	})
	if len(groups) == 0 && len(failures) == 0 {
		return &Result{Model: m}, nil
	}

	resp := make([][]float64, len(groups))
	for i := range groups {
		resp[i] = make([]float64, len(groups[i]))
	}
	streamBase := root.Uint64()
	eUnits := (len(groups) + eChunk - 1) / eChunk

	// E-step pass: responsibilities under the current embeddings. Prepares
	// are read-only on the model; each commit copies one chunk's shares into
	// the (group-disjoint) resp rows.
	ePrepare := func(unit int, r *rng.RNG, a any) {
		sc := a.(*eScratch)
		sc.shares = sc.shares[:0]
		lo, hi := unit*eChunk, (unit+1)*eChunk
		if hi > len(groups) {
			hi = len(groups)
		}
		for _, group := range groups[lo:hi] {
			stay := 1.0
			for _, ex := range group {
				stay *= 1 - m.Prob(ex.u, ex.v)
			}
			pPlus := 1 - stay
			for _, ex := range group {
				if pPlus <= 1e-12 {
					sc.shares = append(sc.shares, 1/float64(len(group)))
				} else {
					sc.shares = append(sc.shares, m.Prob(ex.u, ex.v)/pPlus)
				}
			}
		}
	}
	eCommit := func(unit int, a any, tot *trainer.Totals) {
		sc := a.(*eScratch)
		k := 0
		lo, hi := unit*eChunk, (unit+1)*eChunk
		if hi > len(groups) {
			hi = len(groups)
		}
		for i := lo; i < hi; i++ {
			k += copy(resp[i], sc.shares[k:k+len(resp[i])])
		}
	}

	// M-step pass: one SGD sweep over the weighted objective in seeded
	// shuffled order. Success exposures carry label r (their
	// responsibility); failures carry label 0. The gradient of the
	// log-likelihood w.r.t. the logit s = b − ‖ω_u − z_v‖² is (label − σ(s));
	// prepares compute it against round-start parameters, commits apply it
	// to the live rows.
	mPrepare := func(unit int, r *rng.RNG, a any) {
		sc := a.(*mScratch)
		sc.exs = sc.exs[:0]
		sc.loss = 0
		if unit < len(groups) {
			for j, ex := range groups[unit] {
				sc.prepare(m, ex, resp[unit][j])
			}
		} else {
			sc.prepare(m, failures[unit-len(groups)], 0)
		}
	}
	mCommit := func(unit int, a any, tot *trainer.Totals) {
		sc := a.(*mScratch)
		for _, pe := range sc.exs {
			su := m.Store.SourceVec(pe.u)
			tv := m.Store.TargetVec(pe.v)
			// ds/dω_u = −2(ω_u − z_v); ds/dz_v = 2(ω_u − z_v); ds/db = 1.
			for i := range su {
				diff := su[i] - tv[i]
				su[i] -= 2 * pe.g * diff
				tv[i] += 2 * pe.g * diff
			}
			m.Bias += float64(pe.g)
		}
		tot.Loss += sc.loss
		tot.Examples += int64(len(sc.exs))
	}

	run, err := trainer.Run(ctx, trainer.RunConfig{
		Method: "embic", Epochs: cfg.Iterations,
		LearningRate: func(int) float64 { return learningRate },
		Telemetry:    cfg.Telemetry,
		Probe:        func() bool { return m.Store.SampleNonFinite(4096) },
	}, func(done <-chan struct{}, epoch int) trainer.Totals {
		ePass := trainer.Pass{
			Units:      eUnits,
			Workers:    cfg.Workers,
			Block:      eBlock,
			Seed:       trainer.StreamSeed(streamBase, uint64(epoch), 0),
			NewScratch: func() any { return &eScratch{} },
			Prepare:    ePrepare,
			Commit:     eCommit,
		}
		totals := ePass.Run(done)
		select {
		case <-done:
			return totals
		default:
		}
		mPass := trainer.Pass{
			Units:      len(groups) + len(failures),
			Workers:    cfg.Workers,
			Block:      mBlock,
			Seed:       trainer.StreamSeed(streamBase, uint64(epoch), 1),
			Shuffle:    true,
			NewScratch: func() any { return &mScratch{} },
			Prepare:    mPrepare,
			Commit:     mCommit,
		}
		mTotals := mPass.Run(done)
		totals.Loss += mTotals.Loss
		totals.Examples += mTotals.Examples
		totals.Skips += mTotals.Skips
		return totals
	})
	if err != nil {
		return nil, err
	}
	return &Result{Model: m, Epochs: run.Epochs, Canceled: run.Canceled}, nil
}

// eScratch holds one E-step chunk's responsibilities, flattened in group
// order; recycled across rounds.
type eScratch struct {
	shares []float64
}

// preparedExp is one M-step exposure with its gradient coefficient
// (label − σ(s))·learningRate computed against the round-start parameters.
type preparedExp struct {
	u, v int32
	g    float32
}

// mScratch holds one M-step unit's prepared exposures; recycled across
// rounds.
type mScratch struct {
	exs  []preparedExp
	loss float64
}

// prepare scores one exposure against the current (round-start) parameters
// and stages its update. Loss is the exposure's expected complete-data
// log-likelihood term label·ln σ(s) + (1−label)·ln(1−σ(s)).
func (sc *mScratch) prepare(m *Model, ex exposure, label float64) {
	d := vecmath.SquaredDistance(m.Store.SourceVec(ex.u), m.Store.TargetVec(ex.v))
	s := m.Bias - d
	p := vecmath.Sigmoid(s)
	sc.exs = append(sc.exs, preparedExp{u: ex.u, v: ex.v, g: float32((label - p) * learningRate)})
	sc.loss += label*vecmath.LogSigmoid(s) + (1-label)*vecmath.LogSigmoid(-s)
}
