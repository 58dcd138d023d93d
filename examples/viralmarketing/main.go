// Viral marketing: the paper's motivating application. Learn influence
// embeddings from past adoption logs, pick campaign seed users by
// CELF-greedy influence maximization over the learned influence model, and
// compare the resulting cascade size — simulated on the (hidden)
// ground-truth diffusion process — against the classic highest-degree
// seeding heuristic.
//
//	go run ./examples/viralmarketing
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"inf2vec"
	"inf2vec/internal/datagen"
	"inf2vec/internal/ic"
	"inf2vec/internal/infmax"
	"inf2vec/internal/rng"
)

const (
	numSeeds      = 10
	mcRuns        = 300
	candidatePool = 60 // CELF candidate shortlist size
)

func main() {
	cfg := datagen.DiggLike(11)
	cfg.NumUsers = 600
	cfg.NumItems = 120
	ds, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	train, _, _, err := ds.Log.Split(2, 0.8, 0.1)
	if err != nil {
		log.Fatal(err)
	}

	model, err := inf2vec.Train(ds.Graph, train, inf2vec.Config{
		Dim: 32, ContextLength: 30, Alpha: 0.15,
		LearningRate: 0.025, DecayLearningRate: true, Iterations: 20, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Strategy 1: CELF-greedy influence maximization over the LEARNED
	// influence model (pair scores mapped through a logistic link), with the
	// candidate pool shortlisted by learned influence reach.
	learned := &infmax.ModelProber{
		G:      ds.Graph,
		Score:  model.Score,
		Offset: -4, // conservative link: only strong learned ties propagate
	}
	shortlist := topByInfluenceReach(model, ds.Graph, candidatePool)
	res, err := infmax.Greedy(context.Background(), ds.Graph, learned, infmax.Config{
		Seeds:          numSeeds,
		MonteCarloRuns: 100,
		Seed:           7,
		Candidates:     shortlist,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CELF selected %v in %d spread evaluations\n", res.Seeds, res.Evaluations)

	// Strategy 2: highest out-degree (the standard heuristic).
	degSeeds := topByOutDegree(ds.Graph, numSeeds)

	// Judge both against the hidden ground truth: Monte-Carlo IC simulation
	// with the planted edge probabilities the learners never saw.
	r := rng.New(99)
	embSpread, err := ic.ExpectedSpread(context.Background(), ds.TrueProbs, res.Seeds, mcRuns, r)
	if err != nil {
		log.Fatal(err)
	}
	degSpread, err := ic.ExpectedSpread(context.Background(), ds.TrueProbs, degSeeds, mcRuns, r)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncampaign with %d seeds on %d users:\n", numSeeds, ds.Graph.NumNodes())
	fmt.Printf("  Inf2vec + CELF seeds:  expected cascade %.1f users\n", embSpread)
	fmt.Printf("  degree-selected seeds: expected cascade %.1f users\n", degSpread)
	if embSpread > degSpread {
		fmt.Println("  -> the learned embedding finds better spreaders than raw degree")
	} else {
		fmt.Println("  -> degree seeding won this round; try more training data")
	}
}

// topByInfluenceReach ranks users by the sum of their learned pair scores
// over their actual out-neighbors.
func topByInfluenceReach(m *inf2vec.Model, g *inf2vec.Graph, k int) []int32 {
	type scored struct {
		u     int32
		reach float64
	}
	all := make([]scored, 0, g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		var reach float64
		for _, v := range g.OutNeighbors(u) {
			reach += m.Score(u, v)
		}
		all = append(all, scored{u, reach})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].reach > all[j].reach })
	seeds := make([]int32, k)
	for i := 0; i < k; i++ {
		seeds[i] = all[i].u
	}
	return seeds
}

func topByOutDegree(g *inf2vec.Graph, k int) []int32 {
	type scored struct {
		u   int32
		deg int32
	}
	all := make([]scored, 0, g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		all = append(all, scored{u, g.OutDegree(u)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].deg > all[j].deg })
	seeds := make([]int32, k)
	for i := 0; i < k; i++ {
		seeds[i] = all[i].u
	}
	return seeds
}
