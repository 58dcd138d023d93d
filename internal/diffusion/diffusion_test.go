package diffusion

import (
	"slices"
	"testing"
	"testing/quick"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// paperExample reproduces the Figure 5 scenario: social edges such that
// episode order u4,u2,u3,u1,u5 yields pairs (u2->u3),(u4->u1),(u3->u1),(u4->u5).
// Users are zero-indexed: u1=0 ... u5=4.
func paperExample(t *testing.T) (*graph.Graph, *actionlog.Episode) {
	t.Helper()
	g, err := graph.FromEdges(5, [][2]int32{
		{1, 2}, // u2 -> u3
		{3, 0}, // u4 -> u1
		{2, 0}, // u3 -> u1
		{3, 4}, // u4 -> u5
		{0, 1}, // u1 -> u2 (exists but fires in no pair: u1 acts after u2)
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &actionlog.Episode{Item: 0, Records: []actionlog.Record{
		{User: 3, Time: 1}, // u4
		{User: 1, Time: 2}, // u2
		{User: 2, Time: 3}, // u3
		{User: 0, Time: 4}, // u1
		{User: 4, Time: 5}, // u5
	}}
	return g, e
}

func TestEpisodePairsPaperExample(t *testing.T) {
	g, e := paperExample(t)
	pairs := EpisodePairs(g, e)
	want := map[Pair]bool{
		{Source: 1, Target: 2}: true,
		{Source: 3, Target: 0}: true,
		{Source: 2, Target: 0}: true,
		{Source: 3, Target: 4}: true,
	}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v, want 4 specific pairs", pairs)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Fatalf("unexpected pair %v", p)
		}
	}
}

func TestEpisodePairsStrictTime(t *testing.T) {
	g, err := graph.FromEdges(2, [][2]int32{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Simultaneous adoptions: no pair in either direction.
	e := &actionlog.Episode{Records: []actionlog.Record{{User: 0, Time: 1}, {User: 1, Time: 1}}}
	if pairs := EpisodePairs(g, e); len(pairs) != 0 {
		t.Fatalf("simultaneous adoptions produced pairs %v", pairs)
	}
}

func TestEpisodePairsRequireEdge(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := &actionlog.Episode{Records: []actionlog.Record{
		{User: 0, Time: 1}, {User: 2, Time: 2},
	}}
	if pairs := EpisodePairs(g, e); len(pairs) != 0 {
		t.Fatalf("pair without social edge: %v", pairs)
	}
}

func TestBuildPropNet(t *testing.T) {
	g, e := paperExample(t)
	pn := BuildPropNet(g, e)
	if pn.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5 (all adopters)", pn.NumNodes())
	}
	if pn.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", pn.NumEdges())
	}
	if !isDAG(pn) {
		t.Fatal("propagation network is not a DAG")
	}
	// Local index 0 is u4 (first adopter); its successors are u1 (local 3)
	// and u5 (local 4).
	if pn.User(0) != 3 {
		t.Fatalf("User(0) = %d, want 3 (u4)", pn.User(0))
	}
	out := pn.OutLocal(0)
	if len(out) != 2 || out[0] != 3 || out[1] != 4 {
		t.Fatalf("OutLocal(0) = %v, want [3 4]", out)
	}
	// u5 (local 4) has exactly one predecessor: u4 (local 0).
	var in []int32
	for i := int32(0); i < int32(pn.NumNodes()); i++ {
		if slices.Contains(pn.OutLocal(i), 4) {
			in = append(in, i)
		}
	}
	if len(in) != 1 || in[0] != 0 {
		t.Fatalf("predecessors of local 4 = %v, want [0]", in)
	}
}

// isDAG reports whether every edge of pn goes forward in local
// (chronological) order, as BuildPropNet promises.
func isDAG(pn *PropNet) bool {
	for i := int32(0); i < int32(pn.NumNodes()); i++ {
		for _, j := range pn.OutLocal(i) {
			if j <= i {
				return false
			}
		}
	}
	return true
}

func TestPropNetIsolatedNodes(t *testing.T) {
	g, err := graph.FromEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := &actionlog.Episode{Records: []actionlog.Record{
		{User: 0, Time: 1}, {User: 1, Time: 2}, {User: 2, Time: 3},
	}}
	pn := BuildPropNet(g, e)
	if pn.NumNodes() != 3 || pn.NumEdges() != 0 {
		t.Fatalf("isolated propnet: n=%d m=%d", pn.NumNodes(), pn.NumEdges())
	}
}

func TestCountPairs(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := actionlog.FromActions(3, []actionlog.Action{
		{User: 0, Item: 0, Time: 1}, {User: 1, Item: 0, Time: 2}, {User: 2, Item: 0, Time: 3},
		{User: 0, Item: 1, Time: 1}, {User: 1, Item: 1, Time: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	pc := CountPairs(g, l)
	if pc.Total() != 3 {
		t.Fatalf("Total = %d, want 3", pc.Total())
	}
	if pc.NumDistinct() != 2 {
		t.Fatalf("NumDistinct = %d, want 2", pc.NumDistinct())
	}
	if got := pc.Count(Pair{Source: 0, Target: 1}); got != 2 {
		t.Fatalf("Count(0->1) = %d, want 2", got)
	}
	src := pc.SourceFrequencies()
	if src[0] != 2 || src[1] != 1 || src[2] != 0 {
		t.Fatalf("SourceFrequencies = %v", src)
	}
	tgt := pc.TargetFrequencies()
	if tgt[0] != 0 || tgt[1] != 2 || tgt[2] != 1 {
		t.Fatalf("TargetFrequencies = %v", tgt)
	}
	top := pc.TopPairs(1)
	if len(top) != 1 || top[0].Pair != (Pair{Source: 0, Target: 1}) || top[0].Count != 2 {
		t.Fatalf("TopPairs(1) = %v", top)
	}
	if got := pc.TopPairs(10); len(got) != 2 {
		t.Fatalf("TopPairs(10) returned %d pairs, want all 2", len(got))
	}
}

// Property: on random graphs and episodes, every extracted pair respects
// Definition 1 (edge exists, both adopted, strict time order), the propnet
// is a DAG, and pair count equals propnet edge count.
func TestDefinitionOneInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := int32(2 + r.Intn(25))
		b := graph.NewBuilder(n)
		for i := 0; i < r.Intn(120); i++ {
			if err := b.AddEdge(r.Int31n(n), r.Int31n(n)); err != nil {
				return false
			}
		}
		g := b.Build()
		// Random episode: subset of users with random times.
		var recs []actionlog.Record
		for u := int32(0); u < n; u++ {
			if r.Bernoulli(0.5) {
				recs = append(recs, actionlog.Record{User: u, Time: float64(r.Intn(10))})
			}
		}
		l, err := actionlog.FromActions(n, func() []actionlog.Action {
			as := make([]actionlog.Action, len(recs))
			for i, rec := range recs {
				as[i] = actionlog.Action{User: rec.User, Item: 0, Time: rec.Time}
			}
			return as
		}())
		if err != nil || l.NumEpisodes() == 0 {
			return err == nil
		}
		e := l.Episode(0)
		when := make(map[int32]float64)
		for _, rec := range e.Records {
			when[rec.User] = rec.Time
		}
		pairs := EpisodePairs(g, e)
		for _, p := range pairs {
			if !g.HasEdge(p.Source, p.Target) {
				return false
			}
			ts, okS := when[p.Source]
			tt, okT := when[p.Target]
			if !okS || !okT || ts >= tt {
				return false
			}
		}
		pn := BuildPropNet(g, e)
		return isDAG(pn) && pn.NumEdges() == len(pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
