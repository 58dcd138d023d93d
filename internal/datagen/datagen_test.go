package datagen

import (
	"testing"

	"inf2vec/internal/diffusion"
	"inf2vec/internal/eval"
	"inf2vec/internal/stats"
)

// small returns a fast config for unit tests.
func small(seed uint64) Config {
	cfg := DiggLike(seed)
	cfg.Name = "small"
	cfg.NumUsers = 300
	cfg.NumItems = 60
	return cfg
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumUsers = 1 },
		func(c *Config) { c.NumItems = 0 },
		func(c *Config) { c.EdgesPerUser = 0 },
		func(c *Config) { c.Reciprocity = -0.1 },
		func(c *Config) { c.NumTopics = 0 },
		func(c *Config) { c.InterestSharpness = 0 },
		func(c *Config) { c.InterestSharpness = 1.5 },
		func(c *Config) { c.AbilityAlpha = 0 },
		func(c *Config) { c.BaseInfluence = -1 },
		func(c *Config) { c.MaxEdgeProb = 0 },
		func(c *Config) { c.SpontaneousRate = 2 },
	}
	for i, mutate := range bad {
		cfg := small(1)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(small(1))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.NumNodes() != 300 {
		t.Fatalf("nodes = %d, want 300", ds.Graph.NumNodes())
	}
	if ds.Graph.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	if ds.Log.NumUsers() != 300 {
		t.Fatalf("log universe = %d", ds.Log.NumUsers())
	}
	if ds.Log.NumEpisodes() == 0 || ds.Log.NumActions() == 0 {
		t.Fatal("empty action log")
	}
	if len(ds.Interest) != 300 || len(ds.ItemTopic) != 60 {
		t.Fatal("interest/topic tables missized")
	}
	for _, row := range ds.Interest[:5] {
		var sum float64
		for _, w := range row {
			sum += w
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("interest row sums to %v, want 1", sum)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(small(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(small(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() || a.Log.NumActions() != b.Log.NumActions() {
		t.Fatal("same-seed generation diverged")
	}
	c, err := Generate(small(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Log.NumActions() == c.Log.NumActions() && a.Graph.NumEdges() == c.Graph.NumEdges() {
		t.Log("warning: different seeds produced identical shapes (possible but unlikely)")
	}
}

func TestPlantedProbsInRange(t *testing.T) {
	ds, err := Generate(small(2))
	if err != nil {
		t.Fatal(err)
	}
	ds.Graph.Edges(func(u, v int32) bool {
		p := ds.TrueProbs.Prob(u, v)
		if p < 0 || p > ds.Config.MaxEdgeProb {
			t.Fatalf("planted P(%d,%d) = %v outside [0,%v]", u, v, p, ds.Config.MaxEdgeProb)
		}
		return true
	})
}

// TestStatisticalShape verifies the three §III observations the generator
// must reproduce: heavy-tailed source/target frequencies and a large
// zero-influence mass in the Figure 3 CDF.
func TestStatisticalShape(t *testing.T) {
	ds, err := Generate(DiggLike(3))
	if err != nil {
		t.Fatal(err)
	}
	pc := diffusion.CountPairs(ds.Graph, ds.Log)
	if pc.Total() == 0 {
		t.Fatal("no influence pairs generated")
	}
	srcDist := stats.FrequencyDistribution(pc.SourceFrequencies())
	slope, err := stats.LogLogSlope(srcDist)
	if err != nil {
		t.Fatal(err)
	}
	if slope >= -0.3 {
		t.Errorf("source frequency log-log slope = %v, want clearly negative (heavy tail)", slope)
	}
	tgtDist := stats.FrequencyDistribution(pc.TargetFrequencies())
	slope, err = stats.LogLogSlope(tgtDist)
	if err != nil {
		t.Fatal(err)
	}
	if slope >= -0.3 {
		t.Errorf("target frequency log-log slope = %v, want clearly negative", slope)
	}

	counts := eval.PriorActiveFriendCounts(ds.Graph, ds.Log)
	cdf := stats.NewCDF(counts)
	zeroMass := cdf.At(0)
	if zeroMass < 0.5 || zeroMass > 0.9 {
		t.Errorf("digg-like CDF(0) = %v, want in [0.5,0.9] (paper: ~0.7)", zeroMass)
	}
}

func TestFlickrLikeDenser(t *testing.T) {
	digg, err := Generate(small(4))
	if err != nil {
		t.Fatal(err)
	}
	fcfg := FlickrLike(4)
	fcfg.NumUsers = 300
	fcfg.NumItems = 60
	flickr, err := Generate(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	dDeg := float64(digg.Graph.NumEdges()) / float64(digg.Graph.NumNodes())
	fDeg := float64(flickr.Graph.NumEdges()) / float64(flickr.Graph.NumNodes())
	if fDeg <= dDeg {
		t.Errorf("flickr-like density %v not above digg-like %v", fDeg, dDeg)
	}
}

func TestEpisodesChronological(t *testing.T) {
	ds, err := Generate(small(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Log.NumEpisodes(); i++ {
		e := ds.Log.Episode(i)
		for j := 1; j < e.Len(); j++ {
			if e.Records[j].Time < e.Records[j-1].Time {
				t.Fatalf("episode %d out of order", i)
			}
		}
	}
}
