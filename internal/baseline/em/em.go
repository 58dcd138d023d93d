// Package em implements the EM baseline: the expectation-maximization
// estimator of IC-model diffusion probabilities by Saito, Nakano & Kimura
// (KES 2008), adapted — as the paper and Goyal et al. do — from discrete
// cascade steps to timestamped logs: the potential influencers of an
// adoption are the adopter's friends who adopted strictly earlier.
//
// For each episode and each adopter v with non-empty potential-influencer
// set B_v, the E-step distributes responsibility
//
//	r_uv = P_uv / (1 − ∏_{u'∈B_v} (1 − P_u'v))
//
// over u ∈ B_v; the M-step re-estimates P_uv as the summed responsibility
// over successes divided by the number of trials (episodes in which u
// adopted and had the opportunity to influence v — v adopted later or not
// at all).
package em

import (
	"context"
	"fmt"
	"math"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/graph"
	"inf2vec/internal/ic"
	"inf2vec/internal/rng"
	"inf2vec/internal/trainer"
)

// initProb initializes every observed edge probability.
const initProb = 0.1

// Config controls the EM estimator.
type Config struct {
	// Iterations is the number of EM rounds (paper: converges in 10–20).
	// Zero selects 20.
	Iterations int
	// Workers bounds E-step parallelism. Zero or one runs single-threaded;
	// results are bitwise identical at any worker count (EM has no sampling,
	// so the estimate is the same fixed-point iteration regardless).
	Workers int
	// Telemetry, when non-nil, receives per-iteration training events.
	Telemetry func(trainer.Event)
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Iterations == 0 {
		cfg.Iterations = 20
	}
	if cfg.Iterations < 0 {
		return cfg, fmt.Errorf("em: iterations %d must be positive", cfg.Iterations)
	}
	return cfg, nil
}

// Result is the outcome of TrainContext.
type Result struct {
	Probs *ic.EdgeProbs
	// Epochs has one entry per completed EM round; Loss is the observed
	// per-group log-likelihood ln P⁺ summed over success groups.
	Epochs []trainer.EpochStat
	// Canceled reports an early stop via context cancellation; Probs holds
	// the estimate after the last fully completed round.
	Canceled bool
}

// Train runs EM over the training log and returns the learned edge
// probabilities. It is TrainContext without cancellation, returning just
// the estimate.
func Train(g *graph.Graph, log *actionlog.Log, cfg Config) (*ic.EdgeProbs, error) {
	res, err := TrainContext(context.Background(), g, log, cfg)
	if err != nil {
		return nil, err
	}
	return res.Probs, nil
}

// groupChunk is the number of success groups per E-step work unit, and
// groupBlock the number of units per deterministic round. Both are part of
// the determinism contract (see trainer.Pass), though for EM any chunking
// yields the same fixed point — the E-step is read-only, so rounds only
// bound scheduling.
const (
	groupChunk = 128
	groupBlock = 16
)

// minPPlus floors the group success probability in the reported
// log-likelihood so an all-zero group contributes a large-but-finite
// penalty instead of −Inf (which the engine would read as divergence).
const minPPlus = 1e-300

// TrainContext runs EM under a cancellation context. E-step responsibility
// computation is parallel over chunks of success groups; the numerator
// accumulation and the M-step run serially, so the estimate is bitwise
// identical at any Workers value.
func TrainContext(ctx context.Context, g *graph.Graph, log *actionlog.Log, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if g.NumNodes() < log.NumUsers() {
		return nil, fmt.Errorf("em: graph has %d nodes but log universe is %d", g.NumNodes(), log.NumUsers())
	}
	probs := ic.NewEdgeProbs(g)

	// Success groups: for each (episode, adopter v), the edge slots of v's
	// potential influencers. Trials: per edge slot, the number of episodes
	// where the source adopted and could have influenced the target.
	var groups [][]int64
	trials := make(map[int64]int64)

	log.Episodes(func(e *actionlog.Episode) {
		when := make(map[int32]float64, e.Len())
		for _, r := range e.Records {
			when[r.User] = r.Time
		}
		// Failed trials: u adopted, friend v did not adopt at all.
		for _, r := range e.Records {
			u := r.User
			for _, v := range g.OutNeighbors(u) {
				tv, member := when[v]
				slot, ok := probs.Index(u, v)
				if !ok {
					continue
				}
				switch {
				case !member:
					trials[slot]++ // opportunity, no adoption: failure
				case r.Time < tv:
					trials[slot]++ // opportunity followed by adoption: success trial
				default:
					// v adopted first: u never had the chance; not a trial.
				}
			}
		}
		// Success groups per adopter.
		for _, r := range e.Records {
			v := r.User
			var group []int64
			for _, u := range g.InNeighbors(v) {
				if tu, ok := when[u]; ok && tu < r.Time {
					if slot, ok := probs.Index(u, v); ok {
						group = append(group, slot)
					}
				}
			}
			if len(group) > 0 {
				groups = append(groups, group)
			}
		}
	})

	// Initialize only edges that ever had a trial; others stay 0.
	for slot := range trials {
		probs.SetAt(slot, initProb)
	}

	numer := make(map[int64]float64, len(trials))
	units := (len(groups) + groupChunk - 1) / groupChunk

	// E-step pass: prepares compute each chunk's responsibility shares
	// against the current estimate (read-only); commits fold them into the
	// shared numerator map in group order.
	prepare := func(unit int, r *rng.RNG, a any) {
		sc := a.(*eScratch)
		sc.shares = sc.shares[:0]
		sc.loss = 0
		lo, hi := unit*groupChunk, (unit+1)*groupChunk
		if hi > len(groups) {
			hi = len(groups)
		}
		for _, group := range groups[lo:hi] {
			stay := 1.0
			for _, slot := range group {
				stay *= 1 - probs.ProbAt(slot)
			}
			pPlus := 1 - stay
			sc.loss += math.Log(math.Max(pPlus, minPPlus))
			if pPlus <= 0 {
				// All influencer probabilities are zero; spread evenly to
				// avoid a stuck all-zero fixed point.
				share := 1 / float64(len(group))
				for range group {
					sc.shares = append(sc.shares, share)
				}
				continue
			}
			for _, slot := range group {
				sc.shares = append(sc.shares, probs.ProbAt(slot)/pPlus)
			}
		}
	}
	commit := func(unit int, a any, tot *trainer.Totals) {
		sc := a.(*eScratch)
		k := 0
		lo, hi := unit*groupChunk, (unit+1)*groupChunk
		if hi > len(groups) {
			hi = len(groups)
		}
		for _, group := range groups[lo:hi] {
			for _, slot := range group {
				numer[slot] += sc.shares[k]
				k++
			}
		}
		tot.Loss += sc.loss
		tot.Examples += int64(k)
	}

	run, err := trainer.Run(ctx, trainer.RunConfig{
		Method: "em", Epochs: cfg.Iterations,
		Telemetry: cfg.Telemetry,
	}, func(done <-chan struct{}, epoch int) trainer.Totals {
		for k := range numer {
			delete(numer, k)
		}
		pass := trainer.Pass{
			Units:      units,
			Workers:    cfg.Workers,
			Block:      groupBlock,
			NewScratch: func() any { return &eScratch{} },
			Prepare:    prepare,
			Commit:     commit,
		}
		totals := pass.Run(done)
		select {
		case <-done:
			// Canceled mid-E-step: skip the M-step so probs keep the last
			// fully completed round's estimate.
			return totals
		default:
		}
		// M-step. Per-slot updates are independent, so map order is
		// irrelevant to the result.
		for slot, t := range trials {
			if t > 0 {
				probs.SetAt(slot, numer[slot]/float64(t))
			}
		}
		return totals
	})
	if err != nil {
		return nil, err
	}
	return &Result{Probs: probs, Epochs: run.Epochs, Canceled: run.Canceled}, nil
}

// eScratch holds one E-step chunk's responsibility shares, flattened in
// group order; recycled across rounds.
type eScratch struct {
	shares []float64
	loss   float64
}
