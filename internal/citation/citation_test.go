package citation

import (
	"testing"

	"inf2vec/internal/core"
)

func smallConfig(seed uint64) Config {
	return Config{
		NumAuthors: 120,
		NumPapers:  400,
		Seed:       seed,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumAuthors: 2},
		{NumPapers: 1},
	}
	for i, cfg := range bad {
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	d, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.TrainPairs) == 0 || len(d.TestPairs) == 0 {
		t.Fatalf("pair split = %d/%d", len(d.TrainPairs), len(d.TestPairs))
	}
	ratio := float64(len(d.TrainPairs)) / float64(len(d.TrainPairs)+len(d.TestPairs))
	if ratio < 0.78 || ratio > 0.82 {
		t.Fatalf("train fraction = %v, want ~0.8", ratio)
	}
	for _, p := range d.TrainPairs[:10] {
		if p.Source < 0 || p.Source >= 120 || p.Target < 0 || p.Target >= 120 || p.Source == p.Target {
			t.Fatalf("invalid pair %+v", p)
		}
	}
	var papers int
	for _, c := range d.PaperCount {
		papers += c
	}
	if papers == 0 {
		t.Fatal("no authorship recorded")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TrainPairs) != len(b.TrainPairs) || a.TrainPairs[0] != b.TrainPairs[0] {
		t.Fatal("same-seed generation diverged")
	}
}

func TestTrainGraph(t *testing.T) {
	d, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	g := d.TrainGraph()
	if g.NumNodes() != 120 {
		t.Fatalf("graph nodes = %d", g.NumNodes())
	}
	for _, p := range d.TrainPairs[:20] {
		if !g.HasEdge(p.Source, p.Target) {
			t.Fatalf("train pair %+v missing from graph", p)
		}
	}
}

func TestFollowerSets(t *testing.T) {
	d, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	sets := FollowerSets(120, d.TrainPairs)
	seen := map[[2]int32]bool{}
	for _, p := range d.TrainPairs {
		seen[[2]int32{p.Source, p.Target}] = true
	}
	for u := int32(0); u < 120; u++ {
		for _, v := range sets[u] {
			if !seen[[2]int32{u, v}] {
				t.Fatalf("follower set invented pair (%d,%d)", u, v)
			}
		}
	}
}

func TestMostProlific(t *testing.T) {
	d, err := Generate(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	top := d.MostProlific(5)
	if len(top) != 5 {
		t.Fatalf("MostProlific returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if d.PaperCount[top[i]] > d.PaperCount[top[i-1]] {
			t.Fatal("MostProlific not descending")
		}
	}
}

// TestRunStudyShape is the integration test of the §V-D claim: the
// embedding model must beat the conventional model on mean P@10.
func TestRunStudyShape(t *testing.T) {
	d, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStudy(d, StudyConfig{
		Embedding:      core.Config{Dim: 16, Iterations: 8, LearningRate: 0.03, Seed: 1},
		MonteCarloRuns: 100,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTestAuthors == 0 {
		t.Fatal("no test authors")
	}
	if res.EmbeddingPrecision <= res.ConventionalPrecision {
		t.Errorf("embedding P@10 %v not above conventional %v",
			res.EmbeddingPrecision, res.ConventionalPrecision)
	}
	if len(res.Examples) != 3 {
		t.Fatalf("examples = %d, want 3", len(res.Examples))
	}
	for _, ex := range res.Examples {
		if len(ex.Embedding) == 0 || len(ex.Conventional) == 0 {
			t.Fatal("empty example prediction lists")
		}
	}
}
