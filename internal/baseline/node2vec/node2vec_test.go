package node2vec

import (
	"math"
	"testing"

	"inf2vec/internal/graph"
)

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dim != 50 || cfg.WalksPerNode != 10 || cfg.WalkLength != 80 ||
		cfg.Window != 10 || cfg.Epochs != 3 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if _, err := (Config{Window: -1}).withDefaults(); err == nil {
		t.Error("negative Window accepted")
	}
}

func TestTrainEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if _, err := Train(g, Config{Dim: 4}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

// twoCliques builds two directed 4-cliques joined by a single bridge edge.
func twoCliques(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(8)
	addClique := func(base int32) {
		for i := int32(0); i < 4; i++ {
			for j := int32(0); j < 4; j++ {
				if i != j {
					if err := b.AddEdge(base+i, base+j); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	addClique(0)
	addClique(4)
	if err := b.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(4, 3); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestTrainCapturesCommunities(t *testing.T) {
	g := twoCliques(t)
	m, err := Train(g, Config{
		Dim: 8, WalksPerNode: 12, WalkLength: 20, Window: 4, Epochs: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Average within-clique score must exceed average cross-clique score.
	var within, cross float64
	var nw, nc int
	for u := int32(0); u < 8; u++ {
		for v := int32(0); v < 8; v++ {
			if u == v {
				continue
			}
			s := m.Score(u, v)
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatal("non-finite score")
			}
			if (u < 4) == (v < 4) {
				within += s
				nw++
			} else {
				cross += s
				nc++
			}
		}
	}
	if within/float64(nw) <= cross/float64(nc) {
		t.Fatalf("within-community mean %v not above cross %v",
			within/float64(nw), cross/float64(nc))
	}
}

func TestTrainDeterministic(t *testing.T) {
	g := twoCliques(t)
	cfg := Config{Dim: 4, WalksPerNode: 2, WalkLength: 10, Window: 3, Epochs: 1, Seed: 11}
	a, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score(0, 1) != b.Score(0, 1) {
		t.Fatal("same-seed node2vec training diverged")
	}
}

func TestTrainIsolatedNodesKeepInit(t *testing.T) {
	// Node 2 is isolated: no walk starts or reaches it, so its source
	// vector stays at initialization scale and scoring still works.
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(g, Config{Dim: 4, WalksPerNode: 2, WalkLength: 5, Window: 2, Epochs: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Score(2, 0); math.IsNaN(s) {
		t.Fatal("isolated node score is NaN")
	}
}
