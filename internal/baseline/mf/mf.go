// Package mf implements the MF baseline: a user-user matrix factorization
// trained with Bayesian Personalized Ranking (Rendle et al., UAI 2009).
//
// The factorized matrix is the co-action matrix — entry (u,v) is the number
// of items both users adopted — so the model captures exactly the paper's
// global user-interest-similarity signal and nothing else (no network
// structure, no propagation order). For user u, BPR learns to rank users
// who share actions with u above users who share none.
package mf

import (
	"context"
	"fmt"
	"sort"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/embed"
	"inf2vec/internal/rng"
	"inf2vec/internal/trainer"
	"inf2vec/internal/vecmath"
)

// The SGD step size and the L2 regularization weight.
const (
	learningRate = 0.05
	regWeight    = 0.01
)

// Config controls BPR training.
type Config struct {
	// Dim is the latent dimension. Zero selects 50.
	Dim int
	// Iterations is the number of epochs; each epoch draws one (positive,
	// negative) pair per observed co-action. Zero selects 20.
	Iterations int
	// Seed drives initialization and sampling.
	Seed uint64
	// Workers bounds sampling/gradient parallelism. Zero or one runs
	// single-threaded; results are bitwise identical at any worker count.
	Workers int
	// Telemetry, when non-nil, receives per-epoch training events.
	Telemetry func(trainer.Event)
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 50
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 20
	}
	if cfg.Dim < 0 || cfg.Iterations < 0 {
		return cfg, fmt.Errorf("mf: negative hyperparameter in %+v", cfg)
	}
	return cfg, nil
}

// Model is a trained user-user factorization. Score(u,v) = p_u · q_v + b_v,
// implementing the latent pair scorer used by Eq. 7.
type Model struct {
	Store *embed.Store
}

// Score returns the learned affinity of (u,v).
func (m *Model) Score(u, v int32) float64 { return m.Store.Score(u, v) }

// Result is the outcome of TrainContext.
type Result struct {
	Model *Model
	// Epochs has one entry per completed pass; Skips counts draws whose
	// negative rejection sampling exhausted its attempt budget (previously
	// these were discarded silently).
	Epochs []trainer.EpochStat
	// Canceled reports an early stop via context cancellation; Model holds
	// the best-so-far factorization.
	Canceled bool
}

// Train fits the factorization on the training log's co-action structure.
// It is TrainContext without cancellation, returning just the model.
func Train(log *actionlog.Log, cfg Config) (*Model, error) {
	res, err := TrainContext(context.Background(), log, cfg)
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}

// drawChunk is the number of BPR draws per engine work unit, and drawBlock
// the number of units per deterministic round. Both are part of the
// determinism contract (see trainer.Pass).
const (
	drawChunk = 64
	drawBlock = 8
)

// maxNegativeDraws bounds the rejection sampling of a negative per draw.
const maxNegativeDraws = 10

// TrainContext fits the factorization under a cancellation context. Each
// epoch draws one (positive, negative) pair per observed co-action; draws
// are sampled and scored in parallel chunks against round-start parameters
// and committed in deterministic order, so results are bitwise identical at
// any Workers value.
func TrainContext(ctx context.Context, log *actionlog.Log, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	store, err := embed.New(log.NumUsers(), cfg.Dim)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	store.Init(root.Split())
	m := &Model{Store: store}

	positives := coActors(log)
	var rows []int32 // users with at least one co-actor
	var totalPos int64
	for u, ps := range positives {
		if len(ps) > 0 {
			rows = append(rows, int32(u))
			totalPos += int64(len(ps))
		}
	}
	if len(rows) == 0 {
		return &Result{Model: m}, nil
	}

	n := log.NumUsers()
	streamBase := root.Uint64()
	lr := float32(learningRate)
	units := int((totalPos + drawChunk - 1) / drawChunk)

	prepare := func(unit int, r *rng.RNG, a any) {
		sc := a.(*drawScratch)
		sc.triples = sc.triples[:0]
		sc.loss, sc.skips = 0, 0
		draws := drawChunk
		if rem := totalPos - int64(unit)*drawChunk; rem < drawChunk {
			draws = int(rem)
		}
		for d := 0; d < draws; d++ {
			u := rows[r.Intn(len(rows))]
			ps := positives[u]
			v := ps[r.Intn(len(ps))]
			// Rejection-sample a negative: a user sharing no action with u.
			// Exhaustion (u co-acts with nearly everyone) is counted rather
			// than silently discarded.
			var w int32
			ok := false
			for attempt := 0; attempt < maxNegativeDraws; attempt++ {
				w = r.Int31n(n)
				if w != u && !contains(ps, w) {
					ok = true
					break
				}
			}
			if !ok {
				sc.skips++
				continue
			}
			pu := store.SourceVec(u)
			dScore := vecmath.Dot(pu, store.TargetVec(v)) - vecmath.Dot(pu, store.TargetVec(w)) +
				*store.BiasTarget(v) - *store.BiasTarget(w)
			sc.triples = append(sc.triples, bprTriple{
				u: u, v: v, w: w,
				g: float32(vecmath.Sigmoid(-float64(dScore))) * lr, // ∂ lnσ(d)/∂d · lr
			})
			sc.loss += vecmath.LogSigmoid(float64(dScore))
		}
	}
	commit := func(unit int, a any, tot *trainer.Totals) {
		sc := a.(*drawScratch)
		for _, tr := range sc.triples {
			m.bprApply(tr, lr, regWeight)
		}
		tot.Loss += sc.loss
		tot.Examples += int64(len(sc.triples))
		tot.Skips += sc.skips
	}

	run, err := trainer.Run(ctx, trainer.RunConfig{
		Method: "mf", Epochs: cfg.Iterations,
		LearningRate: func(int) float64 { return learningRate },
		Telemetry:    cfg.Telemetry,
		Probe:        func() bool { return store.SampleNonFinite(4096) },
	}, func(done <-chan struct{}, epoch int) trainer.Totals {
		pass := trainer.Pass{
			Units:      units,
			Workers:    cfg.Workers,
			Block:      drawBlock,
			Seed:       trainer.StreamSeed(streamBase, uint64(epoch)),
			NewScratch: func() any { return &drawScratch{} },
			Prepare:    prepare,
			Commit:     commit,
		}
		return pass.Run(done)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Model: m, Epochs: run.Epochs, Canceled: run.Canceled}, nil
}

// bprTriple is one prepared draw: the sampled triple and the gradient
// coefficient σ(−d)·lr computed against the round-start snapshot.
type bprTriple struct {
	u, v, w int32
	g       float32
}

// drawScratch is one unit's prepared draws, recycled across rounds.
type drawScratch struct {
	triples []bprTriple
	loss    float64
	skips   int64
}

// bprApply applies one BPR update for the triple (u, v⁺, w⁻), using the
// prepared gradient coefficient with the live rows.
func (m *Model) bprApply(tr bprTriple, lr, reg float32) {
	pu := m.Store.SourceVec(tr.u)
	qv := m.Store.TargetVec(tr.v)
	qw := m.Store.TargetVec(tr.w)
	bv := m.Store.BiasTarget(tr.v)
	bw := m.Store.BiasTarget(tr.w)
	g := tr.g

	for i := range pu {
		puI, qvI, qwI := pu[i], qv[i], qw[i]
		pu[i] += g*(qvI-qwI) - lr*reg*puI
		qv[i] += g*puI - lr*reg*qvI
		qw[i] += -g*puI - lr*reg*qwI
	}
	*bv += g - lr*reg**bv
	*bw += -g - lr*reg**bw
}

// coActors returns, per user, the sorted distinct users sharing at least
// one adopted item.
func coActors(log *actionlog.Log) [][]int32 {
	sets := make([]map[int32]bool, log.NumUsers())
	log.Episodes(func(e *actionlog.Episode) {
		users := e.Users()
		for _, u := range users {
			if sets[u] == nil {
				sets[u] = make(map[int32]bool)
			}
			for _, v := range users {
				if v != u {
					sets[u][v] = true
				}
			}
		}
	})
	out := make([][]int32, log.NumUsers())
	for u, set := range sets {
		if len(set) == 0 {
			continue
		}
		lst := make([]int32, 0, len(set))
		for v := range set {
			lst = append(lst, v)
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		out[u] = lst
	}
	return out
}

// contains reports whether sorted slice ps contains x.
func contains(ps []int32, x int32) bool {
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= x })
	return i < len(ps) && ps[i] == x
}
