// Package inf2vec is the public API of the Inf2vec reproduction: a latent
// representation model for social influence embedding (Feng et al., ICDE
// 2018).
//
// Inf2vec learns, for every user of a social network, a source embedding
// S_u (the capability to influence others), a target embedding T_u (the
// tendency to be influenced), an influence-ability bias b_u and a conformity
// bias b̃_u, from a social graph plus an action log of (user, item, time)
// adoptions. The learned pair score
//
//	x(u,v) = S_u · T_v + b_u + b̃_v
//
// ranks how likely u is to influence v, and aggregating it over a set of
// already-active users (Eq. 7 of the paper) predicts activations and
// diffusion.
//
// # Quick start
//
//	g, _ := inf2vec.ReadGraph(graphFile)          // "u<TAB>v" edges: u can influence v
//	log, _ := inf2vec.ReadActionLog(logFile, g.NumNodes())
//	model, _ := inf2vec.Train(g, log, inf2vec.Config{Seed: 1})
//	score := model.Score(u, v)                    // learned influence affinity
//	top := model.RankInfluenced([]int32{seed}, inf2vec.Max, 10)
//
// See the examples/ directory for end-to-end programs, and the internal
// packages for the full experiment harness reproducing the paper's tables
// and figures.
package inf2vec

import (
	"context"
	"fmt"
	"io"
	"os"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/embed"
	"inf2vec/internal/eval"
	"inf2vec/internal/graph"
)

// Config collects Inf2vec's hyperparameters; zero values select the paper's
// defaults (K=50, L=50, α=0.1, restart 0.5, γ=0.005, |N|=5, 10 iterations).
// See the field documentation in the underlying type.
type Config = core.Config

// Graph is a directed social network over dense int32 user IDs. An edge
// (u,v) means v watches u, so influence flows u -> v.
type Graph = graph.Graph

// GraphBuilder incrementally assembles a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with at least n nodes.
func NewGraphBuilder(n int32) *GraphBuilder { return graph.NewBuilder(n) }

// ActionLog is a set of diffusion episodes: who adopted which item when.
type ActionLog = actionlog.Log

// Action is one raw (user, item, time) adoption record.
type Action = actionlog.Action

// Episode is one diffusion episode: every adoption of one item in
// chronological order.
type Episode = actionlog.Episode

// NewActionLog builds an ActionLog from raw adoption records over a fixed
// user universe.
func NewActionLog(numUsers int32, actions []Action) (*ActionLog, error) {
	return actionlog.FromActions(numUsers, actions)
}

// Aggregator merges per-pair scores from several possible influencers into
// one activation likelihood (the F() of Eq. 7).
type Aggregator = eval.Aggregator

// The four aggregation functions of the paper's Table V.
const (
	Ave    = eval.Ave
	Sum    = eval.Sum
	Max    = eval.Max
	Latest = eval.Latest
)

// ParseAggregator resolves a case-insensitive aggregator name ("ave", "sum",
// "max", "latest").
func ParseAggregator(name string) (Aggregator, error) { return eval.ParseAggregator(name) }

// Scorer is a bounds-checked, cancellation-aware scoring facade over a
// model: the building block of the online serving layer. See NewScorer.
type Scorer = eval.Scorer

// ErrNoScores reports an aggregation over an empty score set (Eq. 7 is
// undefined for a candidate with no active neighbor).
var ErrNoScores = eval.ErrNoScores

// ErrUserRange reports a user ID outside the model's universe.
var ErrUserRange = eval.ErrUserRange

// Metrics is an evaluation result row: AUC, MAP and P@{10,50,100} averaged
// over test episodes.
type Metrics = eval.Metrics

// ReadGraph parses a directed edge list ("u<TAB>v" per line, '#' comments)
// from r. The node universe is the largest ID seen plus one.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r, 0) }

// ReadGraphFile is ReadGraph over a file path.
func ReadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("inf2vec: %w", err)
	}
	defer f.Close()
	return graph.ReadEdgeList(f, 0)
}

// ReadActionLog parses an action log ("user<TAB>item<TAB>time" per line)
// from r. Pass numUsers 0 to infer the universe from the data.
func ReadActionLog(r io.Reader, numUsers int32) (*ActionLog, error) {
	return actionlog.ReadTSV(r, numUsers)
}

// ReadActionLogFile is ReadActionLog over a file path.
func ReadActionLogFile(path string, numUsers int32) (*ActionLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("inf2vec: %w", err)
	}
	defer f.Close()
	return actionlog.ReadTSV(f, numUsers)
}

// Model is a trained social influence embedding.
type Model struct {
	inner *core.Model
}

// Recovery records one divergence-recovery event of the fault-tolerant
// training loop: the epoch whose pass produced non-finite parameters, the
// halved learning-rate multiplier applied afterwards, and whether the model
// was re-initialized rather than rolled back to a checkpoint.
type Recovery = core.Recovery

// TrainEvent is one typed training-telemetry record, delivered synchronously
// on the training goroutine when Config.Telemetry is set. Marshal one per
// line for a JSONL telemetry stream.
type TrainEvent = core.Event

// TrainEventKind discriminates TrainEvent records.
type TrainEventKind = core.EventKind

// The training-telemetry milestones. See internal/trainer's Event for the
// fields each kind populates.
const (
	EventTrainStart         = core.EventTrainStart
	EventEpochStart         = core.EventEpochStart
	EventEpochEnd           = core.EventEpochEnd
	EventDivergenceRecovery = core.EventDivergenceRecovery
	EventCheckpointWritten  = core.EventCheckpointWritten
	EventTrainEnd           = core.EventTrainEnd
)

// ErrDiverged is returned when training produces non-finite parameters and
// the bounded divergence recovery fails to restore a finite trajectory.
var ErrDiverged = core.ErrDiverged

// ErrCheckpointMismatch is returned by Resume when the checkpoint on disk
// was written under a different training configuration.
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// Train fits Inf2vec (Algorithm 2 of the paper) on a social graph and the
// training split of an action log.
func Train(g *Graph, log *ActionLog, cfg Config) (*Model, error) {
	res, err := core.Train(g, log, cfg)
	if err != nil {
		return nil, err
	}
	return &Model{inner: res.Model}, nil
}

// TrainContext is Train under a cancellation context: cancellation is
// observed between epochs and every 256 tuples inside each SGD pass. On
// cancellation the best-so-far model is returned (use
// TrainWithStatsContext to observe the Canceled flag).
func TrainContext(ctx context.Context, g *Graph, log *ActionLog, cfg Config) (*Model, error) {
	res, err := core.TrainContext(ctx, g, log, cfg)
	if err != nil {
		return nil, err
	}
	return &Model{inner: res.Model}, nil
}

// TrainWithStats is Train, additionally returning per-epoch losses and
// timings and the corpus shape.
func TrainWithStats(g *Graph, log *ActionLog, cfg Config) (*Model, *TrainStats, error) {
	return TrainWithStatsContext(context.Background(), g, log, cfg)
}

// TrainWithStatsContext is TrainWithStats under a cancellation context.
func TrainWithStatsContext(ctx context.Context, g *Graph, log *ActionLog, cfg Config) (*Model, *TrainStats, error) {
	res, err := core.TrainContext(ctx, g, log, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Model{inner: res.Model}, newTrainStats(res), nil
}

// Resume continues a training run from the checkpoint at
// cfg.CheckpointPath, written by a previous run with the same graph, log
// and configuration. Resumed runs are bitwise identical to uninterrupted
// ones. Resuming an already-finished run returns the final model
// immediately.
func Resume(ctx context.Context, g *Graph, log *ActionLog, cfg Config) (*Model, *TrainStats, error) {
	res, err := core.Resume(ctx, g, log, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Model{inner: res.Model}, newTrainStats(res), nil
}

// TrainStats summarizes a training run.
type TrainStats struct {
	NumTuples    int   // generated (u, C_u^i) tuples, |P|
	NumPositives int64 // total context entries, |P|·L
	// EpochLoss is the mean Eq. 4 objective per positive, per pass. It is
	// a table estimate: each term is within 1.5e-3 of the exact
	// log-sigmoid for logits inside (-6, 6) and 2.5e-3 outside (see
	// core.EpochStat.Loss).
	EpochLoss    []float64
	EpochSeconds []float64 // wall-clock seconds per pass
	// StartEpoch is the first epoch this call executed: 0 for a fresh run,
	// the checkpoint's completed-epoch count after Resume.
	StartEpoch int
	// Canceled reports that the run stopped early because its context was
	// canceled; the model holds the best-so-far parameters and EpochLoss
	// covers completed passes only.
	Canceled bool
	// Recoveries is the divergence-recovery history, oldest first.
	Recoveries []Recovery
}

func newTrainStats(res *core.Result) *TrainStats {
	stats := &TrainStats{
		NumTuples:    res.NumTuples,
		NumPositives: res.NumPositives,
		StartEpoch:   res.StartEpoch,
		Canceled:     res.Canceled,
		Recoveries:   append([]Recovery(nil), res.Recoveries...),
	}
	for _, e := range res.Epochs {
		stats.EpochLoss = append(stats.EpochLoss, e.Loss)
		stats.EpochSeconds = append(stats.EpochSeconds, e.Duration.Seconds())
	}
	return stats
}

// Score returns the learned influence affinity x(u,v).
func (m *Model) Score(u, v int32) float64 { return m.inner.Score(u, v) }

// NumUsers returns the user universe size.
func (m *Model) NumUsers() int32 { return m.inner.Store.NumUsers() }

// Dim returns the embedding dimension K.
func (m *Model) Dim() int { return m.inner.Store.Dim() }

// SourceEmbedding returns a copy of S_u.
func (m *Model) SourceEmbedding(u int32) []float32 {
	return append([]float32(nil), m.inner.Store.SourceVec(u)...)
}

// TargetEmbedding returns a copy of T_u.
func (m *Model) TargetEmbedding(u int32) []float32 {
	return append([]float32(nil), m.inner.Store.TargetVec(u)...)
}

// Biases returns (b_u, b̃_u) for user u.
func (m *Model) Biases(u int32) (influenceAbility, conformity float32) {
	return *m.inner.Store.BiasSource(u), *m.inner.Store.BiasTarget(u)
}

// NewScorer returns the model's online scoring facade: bounds-checked pair
// scores, Eq. 7 activation aggregation, and deadline-aware top-k influence
// ranking. The serving layer and the convenience methods below share it.
func (m *Model) NewScorer() *Scorer {
	sc, err := eval.NewScorer(m.inner, m.NumUsers())
	if err != nil {
		// A trained model always has a positive universe and a scorer.
		panic(fmt.Sprintf("inf2vec: model scorer: %v", err))
	}
	return sc
}

// PredictActivation aggregates the pair scores from the time-ordered active
// user set onto candidate v (Eq. 7). An empty active set returns
// ErrNoScores, an out-of-universe user ErrUserRange.
func (m *Model) PredictActivation(active []int32, v int32, agg Aggregator) (float64, error) {
	return m.NewScorer().Activation(active, v, agg)
}

// Ranked is one entry of a ranked user list.
type Ranked = eval.Ranked

// RankInfluenced scores every user against the time-ordered seed set and
// returns the topK users most likely to be influenced, descending. Seeds
// themselves are excluded. Empty seeds, non-positive topK or out-of-universe
// seed IDs yield nil; use NewScorer().TopInfluenced for error detail and
// cancellation.
func (m *Model) RankInfluenced(seeds []int32, agg Aggregator, topK int) []Ranked {
	if len(seeds) == 0 || topK <= 0 {
		return nil
	}
	all, err := m.NewScorer().TopInfluenced(context.Background(), seeds, agg, topK)
	if err != nil {
		return nil
	}
	return all
}

// EvaluateActivation runs the paper's activation-prediction task (§V-B1) on
// a held-out test log.
func (m *Model) EvaluateActivation(g *Graph, test *ActionLog, agg Aggregator) (Metrics, error) {
	return eval.ActivationPrediction(g, test, eval.LatentActivationScorer(m.inner, agg))
}

// EvaluateDiffusion runs the paper's diffusion-prediction task (§V-B2):
// seedFrac (paper: 0.05) of each test episode seeds the cascade, the rest is
// ground truth.
func (m *Model) EvaluateDiffusion(g *Graph, test *ActionLog, agg Aggregator, seedFrac float64) (Metrics, error) {
	return eval.DiffusionPrediction(g, test,
		eval.LatentDiffusionScorer(m.inner, agg, test.NumUsers()), seedFrac)
}

// Save writes the model's parameters to w in a versioned, CRC-trailed
// binary format.
func (m *Model) Save(w io.Writer) error { return m.inner.Store.Save(w) }

// SaveFile is Save to a file path. The write is atomic (temp file, fsync,
// rename), so a serving process hot-reloading the path can never observe a
// torn model.
func (m *Model) SaveFile(path string) error {
	return m.inner.Store.SaveFile(path)
}

// LoadModel reads a model written by Save. The loaded model scores and
// predicts; the training configuration is not persisted.
func LoadModel(r io.Reader) (*Model, error) {
	store, err := embed.Load(r)
	if err != nil {
		return nil, err
	}
	return &Model{inner: &core.Model{Store: store}}, nil
}

// LoadModelFile is LoadModel from a file path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("inf2vec: %w", err)
	}
	defer f.Close()
	return LoadModel(f)
}
