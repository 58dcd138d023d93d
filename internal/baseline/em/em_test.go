package em

import (
	"math"
	"testing"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/graph"
)

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{Iterations: -1}).withDefaults(); err == nil {
		t.Error("negative iterations accepted")
	}
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Iterations != 20 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// TestSingleParentConvergesToMLE: with exactly one potential influencer per
// adoption, every responsibility is 1, so EM reduces to the
// successes/trials MLE and converges in one round.
func TestSingleParentConvergesToMLE(t *testing.T) {
	g, err := graph.FromEdges(2, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// 0 acts in 4 episodes; 1 follows in 3 of them. No other edges.
	var actions []actionlog.Action
	for it := int32(0); it < 4; it++ {
		actions = append(actions, actionlog.Action{User: 0, Item: it, Time: 1})
	}
	for it := int32(0); it < 3; it++ {
		actions = append(actions, actionlog.Action{User: 1, Item: it, Time: 2})
	}
	l, err := actionlog.FromActions(2, actions)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := Train(g, l, Config{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := probs.Prob(0, 1); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("P(0,1) = %v, want 3/4", got)
	}
}

// TestResponsibilityFavorsFrequentInfluencer: user 2 adopts after both 0
// and 1 in shared episodes, but user 0 also succeeds alone; EM must assign
// 0 the higher probability.
func TestResponsibilityFavorsFrequentInfluencer(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int32{{0, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var actions []actionlog.Action
	// 6 episodes where 0 and 1 both precede 2.
	for it := int32(0); it < 6; it++ {
		actions = append(actions,
			actionlog.Action{User: 0, Item: it, Time: 1},
			actionlog.Action{User: 1, Item: it, Time: 2},
			actionlog.Action{User: 2, Item: it, Time: 3},
		)
	}
	// 4 episodes where only 0 precedes 2 (so 0 is clearly causal).
	for it := int32(6); it < 10; it++ {
		actions = append(actions,
			actionlog.Action{User: 0, Item: it, Time: 1},
			actionlog.Action{User: 2, Item: it, Time: 2},
		)
	}
	// 4 episodes where 1 acts and 2 does not (1's trials fail).
	for it := int32(10); it < 14; it++ {
		actions = append(actions, actionlog.Action{User: 1, Item: it, Time: 1})
	}
	l, err := actionlog.FromActions(3, actions)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := Train(g, l, Config{Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := probs.Prob(0, 2), probs.Prob(1, 2)
	if p0 <= p1 {
		t.Fatalf("P(0,2)=%v should exceed P(1,2)=%v", p0, p1)
	}
	for _, p := range []float64{p0, p1} {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v outside [0,1]", p)
		}
	}
}

func TestTrainUniverseMismatch(t *testing.T) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := actionlog.FromActions(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(g, l, Config{}); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

func TestTrainEmptyLog(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := actionlog.FromActions(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := Train(g, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := probs.Prob(0, 1); got != 0 {
		t.Fatalf("untrained edge P = %v, want 0", got)
	}
}
