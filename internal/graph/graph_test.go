package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"inf2vec/internal/rng"
)

// diamond returns the 4-node graph 0->1, 0->2, 1->3, 2->3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasic(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	wantOut := map[int32][]int32{0: {1, 2}, 1: {3}, 2: {3}, 3: {}}
	for u, want := range wantOut {
		got := g.OutNeighbors(u)
		if len(got) != len(want) {
			t.Fatalf("OutNeighbors(%d) = %v, want %v", u, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("OutNeighbors(%d) = %v, want %v", u, got, want)
			}
		}
	}
	wantIn := map[int32][]int32{0: {}, 1: {0}, 2: {0}, 3: {1, 2}}
	for v, want := range wantIn {
		got := g.InNeighbors(v)
		if len(got) != len(want) {
			t.Fatalf("InNeighbors(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("InNeighbors(%d) = %v, want %v", v, got, want)
			}
		}
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(2, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (dedup + self-loop drop)", g.NumEdges())
	}
}

func TestBuilderGrowsN(t *testing.T) {
	b := NewBuilder(0)
	if err := b.AddEdge(5, 9); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestAddEdgeRejectsNegative(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("negative source accepted")
	}
	if err := b.AddEdge(0, -2); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestDegrees(t *testing.T) {
	g := diamond(t)
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 {
		t.Errorf("node 0 degrees: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if g.OutDegree(3) != 0 || g.InDegree(3) != 2 {
		t.Errorf("node 3 degrees: out=%d in=%d", g.OutDegree(3), g.InDegree(3))
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		u, v int32
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 3, true}, {2, 3, true},
		{1, 0, false}, {3, 0, false}, {0, 3, false}, {0, 0, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesIterationAndEarlyStop(t *testing.T) {
	g := diamond(t)
	var count int
	g.Edges(func(u, v int32) bool { count++; return true })
	if count != 4 {
		t.Fatalf("full iteration visited %d edges, want 4", count)
	}
	count = 0
	g.Edges(func(u, v int32) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early-stop iteration visited %d edges, want 2", count)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

// Property: for every edge (u,v) in a random graph, v appears in
// OutNeighbors(u) and u appears in InNeighbors(v); and degree sums match the
// edge count in both directions.
func TestCSRBidirectionalConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := int32(2 + r.Intn(40))
		b := NewBuilder(n)
		m := r.Intn(200)
		for i := 0; i < m; i++ {
			if err := b.AddEdge(r.Int31n(n), r.Int31n(n)); err != nil {
				return false
			}
		}
		g := b.Build()
		var outSum, inSum int64
		for u := int32(0); u < g.NumNodes(); u++ {
			outSum += int64(g.OutDegree(u))
			inSum += int64(g.InDegree(u))
		}
		if outSum != g.NumEdges() || inSum != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(u, v int32) bool {
			if !g.HasEdge(u, v) {
				ok = false
				return false
			}
			found := false
			for _, p := range g.InNeighbors(v) {
				if p == u {
					found = true
					break
				}
			}
			if !found {
				ok = false
				return false
			}
			return true
		})
		// Neighbor lists must be sorted (HasEdge relies on it).
		for u := int32(0); u < g.NumNodes() && ok; u++ {
			adj := g.OutNeighbors(u)
			if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
