// Package topicaware implements the paper's first future-work direction
// (§VI): topic-aware influence propagation. "Users' social behaviors are
// influenced by other factors, such as topical features. It is interesting
// to develop some methods to model the topic-aware influence propagation."
//
// The model follows the topic-conditioning recipe of Barbieri et al.'s
// topic-aware IC extension, transplanted to embeddings: alongside the
// global Inf2vec model, one per-topic model is trained on the episodes of
// each (sufficiently observed) topic, and prediction for an item of topic z
// interpolates the topic-specific score with the global one:
//
//	x_z(u,v) = λ · x^{(z)}(u,v) + (1−λ) · x(u,v),
//
// falling back to the global model alone for topics with too few training
// episodes. Item topics are assumed given (e.g. story categories); the
// synthetic generator provides ground-truth topics.
package topicaware

import (
	"fmt"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/graph"
)

// lambda weighs the topic-specific score against the global one.
const lambda = 0.5

// Config controls topic-aware training.
type Config struct {
	// Base configures every underlying Inf2vec trainer.
	Base core.Config
	// MinEpisodes is the minimum number of training episodes a topic needs
	// for its own model; sparser topics use the global model only. Zero
	// selects 10.
	MinEpisodes int
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.MinEpisodes == 0 {
		cfg.MinEpisodes = 10
	}
	if cfg.MinEpisodes < 0 {
		return cfg, fmt.Errorf("topicaware: MinEpisodes %d must be positive", cfg.MinEpisodes)
	}
	return cfg, nil
}

// Model is a trained topic-aware influence embedding.
type Model struct {
	// Global is the topic-blind Inf2vec model.
	Global *core.Model
	// PerTopic maps a topic to its specialized model; topics without enough
	// episodes are absent.
	PerTopic map[int]*core.Model
	// ItemTopic maps item ID to topic (shared with the caller).
	ItemTopic []int
}

// Train fits the global model on the full training log and one specialist
// per topic with at least MinEpisodes episodes. itemTopic maps every item
// ID that can appear in the log to its topic.
func Train(g *graph.Graph, train *actionlog.Log, itemTopic []int, cfg Config) (*Model, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	globalRes, err := core.Train(g, train, cfg.Base)
	if err != nil {
		return nil, fmt.Errorf("topicaware: global model: %w", err)
	}
	m := &Model{
		Global:    globalRes.Model,
		PerTopic:  make(map[int]*core.Model),
		ItemTopic: itemTopic,
	}

	// Partition episodes by topic.
	byTopic := make(map[int][]actionlog.Episode)
	var badItem int32 = -1
	train.Episodes(func(e *actionlog.Episode) {
		if int(e.Item) >= len(itemTopic) {
			badItem = e.Item
			return
		}
		z := itemTopic[e.Item]
		byTopic[z] = append(byTopic[z], *e)
	})
	if badItem >= 0 {
		return nil, fmt.Errorf("topicaware: item %d has no topic assignment", badItem)
	}

	for z, eps := range byTopic {
		if len(eps) < cfg.MinEpisodes {
			continue
		}
		sub, err := actionlog.FromEpisodes(train.NumUsers(), eps)
		if err != nil {
			return nil, fmt.Errorf("topicaware: topic %d sublog: %w", z, err)
		}
		subCfg := cfg.Base
		subCfg.Seed = cfg.Base.Seed + uint64(z) + 1
		res, err := core.Train(g, sub, subCfg)
		if err != nil {
			return nil, fmt.Errorf("topicaware: topic %d model: %w", z, err)
		}
		m.PerTopic[z] = res.Model
	}
	return m, nil
}

// Score returns the topic-conditioned pair score for an item of topic z.
func (m *Model) Score(z int, u, v int32) float64 {
	global := m.Global.Score(u, v)
	if topic, ok := m.PerTopic[z]; ok {
		return lambda*topic.Score(u, v) + (1-lambda)*global
	}
	return global
}

// ItemScorer returns a pair scorer specialized to one item, suitable for
// the eval package's latent scorers.
func (m *Model) ItemScorer(item int32) (ItemScorer, error) {
	if int(item) >= len(m.ItemTopic) || item < 0 {
		return ItemScorer{}, fmt.Errorf("topicaware: item %d has no topic assignment", item)
	}
	return ItemScorer{m: m, topic: m.ItemTopic[item]}, nil
}

// ItemScorer scores pairs under one fixed item's topic.
type ItemScorer struct {
	m     *Model
	topic int
}

// Score implements the latent pair-scorer contract.
func (s ItemScorer) Score(u, v int32) float64 { return s.m.Score(s.topic, u, v) }
