package mf

import (
	"math"
	"testing"

	"inf2vec/internal/actionlog"
)

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dim != 50 || cfg.Iterations != 20 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if _, err := (Config{Dim: -2}).withDefaults(); err == nil {
		t.Error("negative dim accepted")
	}
}

func TestCoActors(t *testing.T) {
	l, err := actionlog.FromActions(4, []actionlog.Action{
		{User: 0, Item: 0, Time: 1}, {User: 1, Item: 0, Time: 2},
		{User: 2, Item: 1, Time: 1}, {User: 3, Item: 1, Time: 2},
		{User: 0, Item: 2, Time: 1}, {User: 1, Item: 2, Time: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := coActors(l)
	if len(pos[0]) != 1 || pos[0][0] != 1 {
		t.Fatalf("coActors(0) = %v, want [1]", pos[0])
	}
	if len(pos[2]) != 1 || pos[2][0] != 3 {
		t.Fatalf("coActors(2) = %v, want [3]", pos[2])
	}
}

func TestTrainSeparatesCommunities(t *testing.T) {
	// Interest communities {0,1} and {2,3}: heavy co-action inside, none
	// across. BPR must rank within-community affinity above cross.
	var actions []actionlog.Action
	for it := int32(0); it < 25; it++ {
		actions = append(actions,
			actionlog.Action{User: 0, Item: it, Time: 1},
			actionlog.Action{User: 1, Item: it, Time: 2},
		)
	}
	for it := int32(25); it < 50; it++ {
		actions = append(actions,
			actionlog.Action{User: 2, Item: it, Time: 1},
			actionlog.Action{User: 3, Item: it, Time: 2},
		)
	}
	l, err := actionlog.FromActions(4, actions)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(l, Config{Dim: 8, Iterations: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Score(0, 1) <= m.Score(0, 2) {
		t.Errorf("within-community score %v not above cross %v", m.Score(0, 1), m.Score(0, 2))
	}
	if m.Score(2, 3) <= m.Score(2, 1) {
		t.Errorf("within-community score %v not above cross %v", m.Score(2, 3), m.Score(2, 1))
	}
	for _, s := range []float64{m.Score(0, 1), m.Score(0, 2)} {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatal("non-finite score")
		}
	}
}

func TestTrainEmptyLog(t *testing.T) {
	l, err := actionlog.FromActions(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(l, Config{Dim: 4, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Store.NumUsers() != 3 {
		t.Fatalf("store universe = %d, want 3", m.Store.NumUsers())
	}
}

func TestTrainDeterministic(t *testing.T) {
	var actions []actionlog.Action
	for it := int32(0); it < 5; it++ {
		actions = append(actions,
			actionlog.Action{User: 0, Item: it, Time: 1},
			actionlog.Action{User: 1, Item: it, Time: 2},
		)
	}
	l, err := actionlog.FromActions(3, actions)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Train(l, Config{Dim: 4, Iterations: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(l, Config{Dim: 4, Iterations: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Score(0, 1) != b.Score(0, 1) {
		t.Fatal("same-seed MF training diverged")
	}
}

func TestContains(t *testing.T) {
	ps := []int32{1, 3, 5}
	for _, c := range []struct {
		x    int32
		want bool
	}{{1, true}, {3, true}, {5, true}, {0, false}, {2, false}, {9, false}} {
		if got := contains(ps, c.x); got != c.want {
			t.Errorf("contains(%v, %d) = %v, want %v", ps, c.x, got, c.want)
		}
	}
}
