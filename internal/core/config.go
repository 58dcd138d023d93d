// Package core implements Inf2vec, the paper's contribution: a latent
// representation model for social influence embedding.
//
// Training follows Algorithm 2. First, influence contexts are generated
// from the social graph and the training action log (Algorithm 1): for each
// adopter u of each episode, the context C_u^i blends L·α nodes from a
// random walk with restart on the episode's propagation network (the local
// influence context) with L·(1−α) nodes sampled uniformly from the
// episode's adopters (the global user-similarity context). Second, a
// skip-gram model with negative sampling (Eqs. 3–6) is fit to the tuples by
// stochastic gradient descent, learning a source embedding S_u, a target
// embedding T_u, an influence-ability bias b_u and a conformity bias b̃_u
// per user.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"

	"inf2vec/internal/embed"
	"inf2vec/internal/trainer"
)

// Config collects Inf2vec's hyperparameters. Zero values select the paper's
// defaults (applied by withDefaults): K=50, L=50, α=0.1, restart 0.5,
// γ=0.005, |N|=5, 10 iterations, uniform negative sampling.
type Config struct {
	// Dim is the embedding dimension K.
	Dim int
	// ContextLength is the context size threshold L of Algorithm 1.
	ContextLength int
	// Alpha is the component weight α: the fraction of the context drawn
	// from the local random walk (the rest is global similarity samples).
	// Alpha = 1 yields the paper's Inf2vec-L ablation. Alpha is only
	// defaulted when negative; an explicit 0 means "global context only".
	Alpha float64
	// RestartRatio is the random walk restart probability (paper: 0.5).
	RestartRatio float64
	// LearningRate is the SGD step size γ.
	LearningRate float64
	// DecayLearningRate linearly anneals the step size from γ to γ/10 over
	// the training run, word2vec's schedule. The paper's C++ implementation
	// inherits this behaviour from word2vec; it mostly matters for the
	// final ranking precision.
	DecayLearningRate bool
	// NegativeSamples is |N|, the number of negative samples per positive.
	NegativeSamples int
	// Iterations is the number of SGD passes over the generated tuples.
	Iterations int
	// NegativePower selects the negative-sampling distribution: 0 samples
	// uniformly over users (the paper's wording); 0.75 uses the word2vec
	// unigram^0.75 distribution over context frequencies. Values in between
	// interpolate.
	NegativePower float64
	// DisableBiases drops b_u and b̃_v from the model (ablation of the
	// paper's global-property argument, §III-B).
	DisableBiases bool
	// FirstOrderOnly skips Algorithm 1 and trains on the raw social
	// influence pairs only — the setting of the paper's efficiency
	// comparison ("without Algorithm 1") and of the citation case study.
	FirstOrderOnly bool
	// Workers is the number of goroutines that run the cells of each
	// sub-epoch of the stratified SGD pass; at most sgdBlocks (2) of them
	// have work. Any value trains the same bits: every cell draws from its
	// own keyed stream and the cells' totals add up in cell order, so it is
	// a pure throughput knob, excluded from the checkpoint fingerprint like
	// CorpusWorkers. Zero selects GOMAXPROCS.
	Workers int
	// CorpusWorkers is the number of goroutines that generate the
	// influence-context corpus (Algorithm 2 lines 3–8). Every episode draws
	// from its own RNG stream keyed on (Seed, episode index), so the corpus
	// is bitwise identical at any worker count: this is a pure throughput
	// knob, excluded from the checkpoint fingerprint, and may change freely
	// between a checkpoint and its Resume. Zero selects GOMAXPROCS.
	CorpusWorkers int
	// Seed drives every random choice (init, walks, sampling, shuffles).
	Seed uint64

	// CheckpointPath, when non-empty, enables durable checkpointing: every
	// CheckpointEvery completed epochs the embedding store and the full
	// training state (RNG streams, epoch counter, stats, recovery history)
	// are written atomically to this path, and Resume continues a run from
	// it. A final checkpoint is also flushed when training completes or is
	// canceled at an epoch boundary.
	CheckpointPath string
	// CheckpointEvery is the checkpoint interval in completed epochs. Zero
	// defaults to 1 when CheckpointPath is set. When CheckpointPath is
	// empty, a positive CheckpointEvery still maintains the in-memory
	// rollback snapshot used by divergence recovery.
	CheckpointEvery int
	// Telemetry, when non-nil, receives one trainer.Event per training
	// milestone (epoch start/end with loss and throughput, divergence
	// recoveries, checkpoints written), synchronously on the training
	// goroutine. It is observability plumbing, not a hyperparameter, so it
	// is excluded from the checkpoint fingerprint.
	Telemetry func(trainer.Event) `json:"-"`
	// MaxDivergenceRetries bounds divergence recovery: after each epoch the
	// loss and a strided sample of parameters are checked for NaN/±Inf; on
	// divergence the trainer rolls back to the last checkpoint snapshot (or
	// re-initializes when none exists), halves the learning rate, and
	// retries. Zero selects the default of 3; negative disables detection.
	MaxDivergenceRetries int

	// CorpusTag distinguishes otherwise-identical configurations trained on
	// different snapshots of a growing action log. The streaming pipeline
	// sets it to the log byte offset of each retraining round so a
	// checkpoint written mid-round can never be resumed against a different
	// round's corpus. Zero (the default) leaves the configuration
	// fingerprint — and therefore every existing checkpoint — unchanged.
	CorpusTag uint64
	// WarmStart, when non-nil, overwrites the first WarmStart.NumUsers()
	// rows of the freshly initialized store with the given parameters before
	// the first SGD pass (and again after a divergence re-initialization).
	// Rows beyond the warm model — users first seen in this round's data —
	// keep their random initialization, drawn exactly as in a cold run. The
	// warm content is folded into the configuration fingerprint, so a
	// checkpoint resumes only against the same starting point.
	WarmStart *embed.Store `json:"-"`
	// CorpusCache, when non-nil, reuses cached per-episode tuples across
	// GenerateCorpus calls for episodes whose actions are unchanged; see
	// CorpusCache. Pure memoization: the generated corpus is bitwise
	// identical with or without it, so it is excluded from the fingerprint.
	CorpusCache *CorpusCache `json:"-"`
}

// ErrBadConfig is returned when a configuration field is out of range.
var ErrBadConfig = errors.New("core: invalid config")

// withDefaults returns cfg with zero fields replaced by the paper's default
// hyperparameters, validating the result.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 50
	}
	if cfg.ContextLength == 0 {
		cfg.ContextLength = 50
	}
	if cfg.Alpha < 0 {
		cfg.Alpha = 0.1
	}
	if cfg.RestartRatio == 0 {
		cfg.RestartRatio = 0.5
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.005
	}
	if cfg.NegativeSamples == 0 {
		cfg.NegativeSamples = 5
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 10
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CorpusWorkers == 0 {
		cfg.CorpusWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.CheckpointEvery == 0 && cfg.CheckpointPath != "" {
		cfg.CheckpointEvery = 1
	}
	if cfg.MaxDivergenceRetries == 0 {
		cfg.MaxDivergenceRetries = 3
	}

	switch {
	case cfg.Dim < 0:
		return cfg, fmt.Errorf("%w: Dim %d", ErrBadConfig, cfg.Dim)
	case cfg.ContextLength < 0:
		return cfg, fmt.Errorf("%w: ContextLength %d", ErrBadConfig, cfg.ContextLength)
	case cfg.Alpha > 1:
		return cfg, fmt.Errorf("%w: Alpha %v outside [0,1]", ErrBadConfig, cfg.Alpha)
	case cfg.RestartRatio < 0 || cfg.RestartRatio > 1:
		return cfg, fmt.Errorf("%w: RestartRatio %v outside [0,1]", ErrBadConfig, cfg.RestartRatio)
	case cfg.LearningRate < 0:
		return cfg, fmt.Errorf("%w: LearningRate %v", ErrBadConfig, cfg.LearningRate)
	case cfg.NegativeSamples < 0:
		return cfg, fmt.Errorf("%w: NegativeSamples %d", ErrBadConfig, cfg.NegativeSamples)
	case cfg.Iterations < 0:
		return cfg, fmt.Errorf("%w: Iterations %d", ErrBadConfig, cfg.Iterations)
	case cfg.NegativePower < 0 || cfg.NegativePower > 1:
		return cfg, fmt.Errorf("%w: NegativePower %v outside [0,1]", ErrBadConfig, cfg.NegativePower)
	case cfg.Workers < 0:
		return cfg, fmt.Errorf("%w: Workers %d", ErrBadConfig, cfg.Workers)
	case cfg.CorpusWorkers < 0:
		return cfg, fmt.Errorf("%w: CorpusWorkers %d", ErrBadConfig, cfg.CorpusWorkers)
	case cfg.CheckpointEvery < 0:
		return cfg, fmt.Errorf("%w: CheckpointEvery %d", ErrBadConfig, cfg.CheckpointEvery)
	}
	return cfg, nil
}

// corpusStreamVersion identifies how corpus-generation RNG streams are
// derived from the seed. Version 2 is the per-episode keyed derivation
// introduced with parallel corpus generation (together with exact-exclusion
// C_2 sampling and run-long worker streams); bumping it invalidates
// checkpoints written under older derivations, whose regenerated corpus
// would silently differ from the one the checkpoint actually trained on.
const corpusStreamVersion = 2

// hash fingerprints every field that shapes the training trajectory, so a
// checkpoint can refuse to resume under a different configuration. The
// checkpointing knobs themselves (path, interval, retry bound) are excluded:
// changing where or how often to checkpoint does not change the run.
// CorpusWorkers is likewise excluded — per-episode RNG streams make the
// corpus bitwise identical at any corpus worker count — while the stream
// derivation itself is versioned in. Workers is excluded for the same
// reason; the SGD pass and its block count are versioned in instead. The
// literal regen=false is the fingerprint's record of Algorithm 2's
// generate-once corpus, kept so no existing checkpoint's hash moves.
func (cfg Config) hash() uint64 {
	canonical := fmt.Sprintf("dim=%d len=%d alpha=%g restart=%g lr=%g decay=%t neg=%d iters=%d negpow=%g nobias=%t regen=false firstorder=%t sgd=%d blocks=%d seed=%d stream=%d",
		cfg.Dim, cfg.ContextLength, cfg.Alpha, cfg.RestartRatio,
		cfg.LearningRate, cfg.DecayLearningRate, cfg.NegativeSamples,
		cfg.Iterations, cfg.NegativePower, cfg.DisableBiases,
		cfg.FirstOrderOnly, sgdPassVersion, sgdBlocks,
		cfg.Seed, corpusStreamVersion)
	// Streaming-round identity is appended only when set, so the hash of
	// every pre-existing configuration — and every checkpoint written under
	// one — is byte-identical to what it was before these fields existed.
	if cfg.CorpusTag != 0 {
		canonical += fmt.Sprintf(" tag=%d", cfg.CorpusTag)
	}
	if cfg.WarmStart != nil {
		canonical += fmt.Sprintf(" warm=%08x", cfg.WarmStart.Checksum())
	}
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return h.Sum64()
}
