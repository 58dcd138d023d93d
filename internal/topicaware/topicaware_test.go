package topicaware

import (
	"testing"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/datagen"
	"inf2vec/internal/eval"
	"inf2vec/internal/graph"
)

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{MinEpisodes: -1}).withDefaults(); err == nil {
		t.Error("negative MinEpisodes accepted")
	}
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MinEpisodes != 10 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// world builds a small two-topic dataset where influence is strictly
// topic-segregated.
func world(t *testing.T) (*graph.Graph, *actionlog.Log, []int) {
	t.Helper()
	// Users 0,1 influence each other on topic-0 items; users 2,3 on topic-1.
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var actions []actionlog.Action
	itemTopic := make([]int, 60)
	for it := int32(0); it < 30; it++ {
		itemTopic[it] = 0
		actions = append(actions,
			actionlog.Action{User: 0, Item: it, Time: 1},
			actionlog.Action{User: 1, Item: it, Time: 2},
		)
	}
	for it := int32(30); it < 60; it++ {
		itemTopic[it] = 1
		actions = append(actions,
			actionlog.Action{User: 2, Item: it, Time: 1},
			actionlog.Action{User: 3, Item: it, Time: 2},
		)
	}
	log, err := actionlog.FromActions(4, actions)
	if err != nil {
		t.Fatal(err)
	}
	return g, log, itemTopic
}

func baseCfg() core.Config {
	return core.Config{
		Dim: 8, ContextLength: 10, Alpha: 0.5,
		LearningRate: 0.05, Iterations: 10, Seed: 1,
	}
}

func TestTrainBuildsPerTopicModels(t *testing.T) {
	g, log, itemTopic := world(t)
	m, err := Train(g, log, itemTopic, Config{Base: baseCfg(), MinEpisodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerTopic) != 2 {
		t.Fatalf("per-topic models = %d, want 2", len(m.PerTopic))
	}
	// Topic models must specialize: the topic-0 model has never seen users
	// 2,3 adopt, so the topic-0 score of (2,3) should be lower than the
	// topic-1 score of (2,3).
	if m.Score(1, 2, 3) <= m.Score(0, 2, 3) {
		t.Errorf("topic conditioning absent: x_1(2,3)=%v <= x_0(2,3)=%v",
			m.Score(1, 2, 3), m.Score(0, 2, 3))
	}
}

func TestSparseTopicFallsBack(t *testing.T) {
	g, log, itemTopic := world(t)
	m, err := Train(g, log, itemTopic, Config{Base: baseCfg(), MinEpisodes: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerTopic) != 0 {
		t.Fatalf("per-topic models = %d, want 0 (all below MinEpisodes)", len(m.PerTopic))
	}
	// Fallback: topic score equals global score.
	if m.Score(0, 0, 1) != m.Global.Score(0, 1) {
		t.Error("fallback score differs from global")
	}
}

func TestTrainRejectsUnmappedItems(t *testing.T) {
	g, log, itemTopic := world(t)
	if _, err := Train(g, log, itemTopic[:10], Config{Base: baseCfg()}); err == nil {
		t.Fatal("missing topic assignments accepted")
	}
}

func TestItemScorer(t *testing.T) {
	g, log, itemTopic := world(t)
	m, err := Train(g, log, itemTopic, Config{Base: baseCfg(), MinEpisodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.ItemScorer(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Score(0, 1); got != m.Score(0, 0, 1) {
		t.Errorf("ItemScorer = %v, want %v", got, m.Score(0, 0, 1))
	}
	if _, err := m.ItemScorer(999); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, err := m.ItemScorer(-1); err == nil {
		t.Error("negative item accepted")
	}
}

// TestTopicAwareBeatsTopicBlind is the extension's headline: on synthetic
// data with topic-segregated influence, conditioning on the item topic
// improves held-out activation prediction.
func TestTopicAwareBeatsTopicBlind(t *testing.T) {
	cfg := datagen.DiggLike(31)
	cfg.NumUsers = 400
	cfg.NumItems = 120
	cfg.NumTopics = 4 // few, well-populated topics
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, _, test, err := ds.Log.Split(1, 0.8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{
		Dim: 16, ContextLength: 20, Alpha: 0.15,
		LearningRate: 0.025, DecayLearningRate: true, Iterations: 12, Seed: 2,
	}
	m, err := Train(ds.Graph, train, ds.ItemTopic, Config{Base: base, MinEpisodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerTopic) == 0 {
		t.Fatal("no per-topic models trained; test is vacuous")
	}

	// Evaluate per-episode with the item-aware scorer vs the global model.
	evalWith := func(scorer func(e *actionlog.Episode) eval.ScoreFunc) float64 {
		var sumAUC float64
		var n int
		test.Episodes(func(e *actionlog.Episode) {
			single, err := actionlog.FromEpisodes(test.NumUsers(), []actionlog.Episode{*e})
			if err != nil {
				t.Fatal(err)
			}
			metrics, err := eval.ActivationPrediction(ds.Graph, single, scorer(e))
			if err != nil {
				t.Fatal(err)
			}
			if metrics.Episodes > 0 && metrics.AUC > 0 {
				sumAUC += metrics.AUC
				n++
			}
		})
		if n == 0 {
			t.Fatal("no evaluable episodes")
		}
		return sumAUC / float64(n)
	}

	aware := evalWith(func(e *actionlog.Episode) eval.ScoreFunc {
		s, err := m.ItemScorer(e.Item)
		if err != nil {
			t.Fatal(err)
		}
		return eval.LatentActivationScorer(s, eval.Max)
	})
	blind := evalWith(func(e *actionlog.Episode) eval.ScoreFunc {
		return eval.LatentActivationScorer(m.Global, eval.Max)
	})
	t.Logf("topic-aware AUC %.4f vs topic-blind %.4f", aware, blind)
	if aware < blind-0.02 {
		t.Errorf("topic conditioning hurt: aware %.4f, blind %.4f", aware, blind)
	}
}
