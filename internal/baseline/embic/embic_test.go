package embic

import (
	"math"
	"testing"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/graph"
)

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dim != 50 || cfg.Iterations != 15 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if _, err := (Config{Dim: -1}).withDefaults(); err == nil {
		t.Error("negative dim accepted")
	}
}

func TestProbZeroOffEdges(t *testing.T) {
	g, err := graph.FromEdges(2, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := actionlog.FromActions(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(g, l, Config{Dim: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Prob(1, 0); got != 0 {
		t.Fatalf("non-edge Prob = %v, want 0", got)
	}
	p := m.Prob(0, 1)
	if p < 0 || p > 1 {
		t.Fatalf("edge Prob = %v outside [0,1]", p)
	}
}

func TestTrainLearnsContrast(t *testing.T) {
	// Edge (0,1) propagates in every episode; edge (0,2) never does.
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var actions []actionlog.Action
	for it := int32(0); it < 30; it++ {
		actions = append(actions,
			actionlog.Action{User: 0, Item: it, Time: 1},
			actionlog.Action{User: 1, Item: it, Time: 2},
		)
	}
	l, err := actionlog.FromActions(3, actions)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(g, l, Config{Dim: 8, Iterations: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Prob(0, 1), m.Prob(0, 2)
	if p1 <= p2 {
		t.Fatalf("P(0,1)=%v should exceed P(0,2)=%v", p1, p2)
	}
	if p1 < 0.5 {
		t.Fatalf("always-firing edge P = %v, want high", p1)
	}
	if math.IsNaN(p1) || math.IsNaN(p2) {
		t.Fatal("training produced NaN probabilities")
	}
	// Score must agree in ordering with Prob (monotone link).
	if m.Score(0, 1) <= m.Score(0, 2) {
		t.Fatal("Score ordering disagrees with Prob ordering")
	}
}

func TestTrainUniverseMismatch(t *testing.T) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := actionlog.FromActions(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(g, l, Config{Dim: 2}); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var actions []actionlog.Action
	for it := int32(0); it < 5; it++ {
		actions = append(actions,
			actionlog.Action{User: 0, Item: it, Time: 1},
			actionlog.Action{User: 1, Item: it, Time: 2},
			actionlog.Action{User: 2, Item: it, Time: 3},
		)
	}
	l, err := actionlog.FromActions(3, actions)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Train(g, l, Config{Dim: 4, Iterations: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, l, Config{Dim: 4, Iterations: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Prob(0, 1) != b.Prob(0, 1) || a.Bias != b.Bias {
		t.Fatal("same-seed Emb-IC training diverged")
	}
}
