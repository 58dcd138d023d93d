package citation

import (
	"context"
	"fmt"
	"sort"

	"inf2vec/internal/core"
	"inf2vec/internal/diffusion"
	"inf2vec/internal/ic"
	"inf2vec/internal/rng"
)

// Table VI's shape: top-10 follower lists, with qualitative columns for the
// three most prolific authors.
const (
	// listLen is the prediction list length K.
	listLen = 10
	// numExamples is how many most-prolific authors get qualitative top-K
	// tables.
	numExamples = 3
)

// StudyConfig controls the §V-D comparison.
type StudyConfig struct {
	// Embedding configures the Inf2vec trainer. It always runs on the
	// first-order pair corpus (the case study's protocol).
	Embedding core.Config
	// MonteCarloRuns is the IC simulation count for the conventional model
	// (paper: 5,000). Zero selects 500.
	MonteCarloRuns int
	// Seed drives the Monte-Carlo simulation.
	Seed uint64
}

func (cfg StudyConfig) withDefaults() StudyConfig {
	if cfg.MonteCarloRuns == 0 {
		cfg.MonteCarloRuns = 500
	}
	return cfg
}

// Prediction is one ranked follower prediction; Hit marks a true test-set
// follower (the "+" of Table VI).
type Prediction struct {
	Author int32
	Hit    bool
}

// Example is one qualitative Table VI column pair: an author with both
// models' top-K predicted followers.
type Example struct {
	Author          int32
	PaperCount      int
	Embedding       []Prediction
	Conventional    []Prediction
	EmbeddingHits   int
	ConventionalHit int
}

// StudyResult aggregates the case study.
type StudyResult struct {
	// EmbeddingPrecision and ConventionalPrecision are mean P@10 over all
	// test authors (paper: 0.1863 vs 0.0616).
	EmbeddingPrecision    float64
	ConventionalPrecision float64
	NumTestAuthors        int
	Examples              []Example
}

// RunStudy trains both models on the training pairs and evaluates top-K
// follower prediction on the test pairs.
func RunStudy(d *Data, cfg StudyConfig) (*StudyResult, error) {
	cfg = cfg.withDefaults()
	n := d.Config.NumAuthors

	// Embedding model: Eq. 4 on first-order pairs.
	corpus := core.CorpusFromPairs(n, d.TrainPairs)
	embRes, err := core.TrainOnCorpus(n, corpus, cfg.Embedding)
	if err != nil {
		return nil, fmt.Errorf("citation: training embedding model: %w", err)
	}
	embedding := embRes.Model

	// Conventional model: ST-style MLE on the pair multiset, then IC
	// Monte-Carlo from each test author.
	g := d.TrainGraph()
	probs := ic.NewEdgeProbs(g)
	counts := make(map[diffusion.Pair]int64, len(d.TrainPairs))
	outTotal := make(map[int32]int64)
	for _, p := range d.TrainPairs {
		counts[p]++
		outTotal[p.Source]++
	}
	for p, c := range counts {
		if err := probs.Set(p.Source, p.Target, float64(c)/float64(outTotal[p.Source])); err != nil {
			return nil, fmt.Errorf("citation: conventional model: %w", err)
		}
	}

	trainFollowers := FollowerSets(n, d.TrainPairs)
	testFollowers := FollowerSets(n, d.TestPairs)

	res := &StudyResult{}
	mcRNG := rng.New(cfg.Seed)
	var embSum, convSum float64

	prolific := d.MostProlific(numExamples)
	wantExample := make(map[int32]bool, len(prolific))
	for _, a := range prolific {
		wantExample[a] = true
	}
	examples := make(map[int32]*Example)

	for u := int32(0); u < n; u++ {
		truth := testFollowers[u]
		if len(truth) == 0 {
			continue
		}
		res.NumTestAuthors++
		exclude := make(map[int32]bool, len(trainFollowers[u])+1)
		exclude[u] = true
		for _, v := range trainFollowers[u] {
			exclude[v] = true
		}
		truthSet := make(map[int32]bool, len(truth))
		for _, v := range truth {
			truthSet[v] = true
		}

		embTop := topK(n, exclude, func(v int32) float64 { return embedding.Score(u, v) })
		mc, err := ic.MonteCarlo(context.Background(), probs, []int32{u}, cfg.MonteCarloRuns, mcRNG)
		if err != nil {
			return nil, fmt.Errorf("citation: monte carlo: %w", err)
		}
		convTop := topK(n, exclude, func(v int32) float64 { return mc[v] })

		embHits := markHits(embTop, truthSet)
		convHits := markHits(convTop, truthSet)
		embSum += float64(countHits(embHits)) / listLen
		convSum += float64(countHits(convHits)) / listLen

		if wantExample[u] {
			examples[u] = &Example{
				Author:          u,
				PaperCount:      d.PaperCount[u],
				Embedding:       embHits,
				Conventional:    convHits,
				EmbeddingHits:   countHits(embHits),
				ConventionalHit: countHits(convHits),
			}
		}
	}
	if res.NumTestAuthors > 0 {
		res.EmbeddingPrecision = embSum / float64(res.NumTestAuthors)
		res.ConventionalPrecision = convSum / float64(res.NumTestAuthors)
	}
	for _, a := range prolific {
		if ex := examples[a]; ex != nil {
			res.Examples = append(res.Examples, *ex)
		}
	}
	return res, nil
}

// topK ranks all non-excluded authors by score, descending, ties by ID, and
// returns the first listLen.
func topK(n int32, exclude map[int32]bool, score func(int32) float64) []Prediction {
	type scored struct {
		v int32
		s float64
	}
	all := make([]scored, 0, n)
	for v := int32(0); v < n; v++ {
		if !exclude[v] {
			all = append(all, scored{v, score(v)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].v < all[j].v
	})
	k := min(listLen, len(all))
	out := make([]Prediction, k)
	for i := 0; i < k; i++ {
		out[i] = Prediction{Author: all[i].v}
	}
	return out
}

func markHits(preds []Prediction, truth map[int32]bool) []Prediction {
	out := append([]Prediction(nil), preds...)
	for i := range out {
		out[i].Hit = truth[out[i].Author]
	}
	return out
}

func countHits(preds []Prediction) int {
	n := 0
	for _, p := range preds {
		if p.Hit {
			n++
		}
	}
	return n
}
