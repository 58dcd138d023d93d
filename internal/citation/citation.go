// Package citation implements the paper's §V-D case study on citation
// networks: comparing the embedding model against the conventional (ST +
// IC Monte-Carlo) influence model at predicting which researchers will cite
// a given author.
//
// The paper uses the DBLP-Citation-network-V9 dump restricted to data
// engineering venues (4,345 papers, 4,259 authors, 138K author-influence
// relationships); that dump is unavailable offline, so Generate synthesizes
// a citation network with the same character: community-structured authors,
// heavy-tailed prolificness, papers citing earlier papers with strong
// same-community bias, and author-influence pairs extracted exactly as the
// paper describes (authors of a cited paper influence authors of the citing
// paper).
package citation

import (
	"fmt"
	"sort"

	"inf2vec/internal/diffusion"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// The network's shape, fixed for the study.
const (
	// numCommunities is the number of research communities.
	numCommunities = 8
	// maxAuthorsPerPaper bounds the author list (uniform 1..max).
	maxAuthorsPerPaper = 3
	// maxCitesPerPaper bounds the reference list (uniform 3..max).
	maxCitesPerPaper = 12
	// sameCommunityBias is the probability a citation stays within the
	// citing paper's community.
	sameCommunityBias = 0.8
	// prolificAlpha is the Pareto shape of author activity (strongly
	// heavy-tailed, like real authorship).
	prolificAlpha = 1.2
	// trainFraction of influence pairs is used for training, the rest is
	// test (the paper's 80/20 split).
	trainFraction = 0.8
)

// Config parameterizes the synthetic citation network.
type Config struct {
	// NumAuthors sizes the author universe (paper: 4,259). Zero selects 800.
	NumAuthors int32
	// NumPapers is the number of papers (paper: 4,345). Zero selects 1600.
	NumPapers int
	// Seed drives generation and the split.
	Seed uint64
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.NumAuthors == 0 {
		cfg.NumAuthors = 800
	}
	if cfg.NumPapers == 0 {
		cfg.NumPapers = 1600
	}
	switch {
	case cfg.NumAuthors < numCommunities:
		return cfg, fmt.Errorf("citation: need at least one author per community (%d authors, %d communities)", cfg.NumAuthors, numCommunities)
	case cfg.NumPapers < 2:
		return cfg, fmt.Errorf("citation: NumPapers %d < 2", cfg.NumPapers)
	}
	return cfg, nil
}

// Data is a generated citation study instance.
type Data struct {
	Config Config
	// TrainPairs and TestPairs are author-influence relationships (cited
	// author -> citing author), with multiplicity, split at random.
	TrainPairs []diffusion.Pair
	TestPairs  []diffusion.Pair
	// Community[a] is author a's community.
	Community []int
	// PaperCount[a] is the number of papers author a wrote (prolificness).
	PaperCount []int
}

// Generate synthesizes a citation network and extracts author-influence
// pairs.
func Generate(cfg Config) (*Data, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	d := &Data{
		Config:     cfg,
		Community:  make([]int, cfg.NumAuthors),
		PaperCount: make([]int, cfg.NumAuthors),
	}

	// Authors: community assignment + heavy-tailed activity weights.
	byCommunity := make([][]int32, numCommunities)
	weights := make([][]float64, numCommunities)
	for a := int32(0); a < cfg.NumAuthors; a++ {
		c := r.Intn(numCommunities)
		d.Community[a] = c
		byCommunity[c] = append(byCommunity[c], a)
		weights[c] = append(weights[c], r.Pareto(1, prolificAlpha))
	}
	samplers := make([]*rng.Alias, numCommunities)
	for c := range samplers {
		if len(weights[c]) == 0 {
			continue
		}
		s, err := rng.NewAlias(weights[c])
		if err != nil {
			return nil, fmt.Errorf("citation: author sampler: %w", err)
		}
		samplers[c] = s
	}

	// Papers in publication order.
	type paper struct {
		community int
		authors   []int32
	}
	papers := make([]paper, 0, cfg.NumPapers)
	var pairs []diffusion.Pair
	byCommunityPapers := make([][]int, numCommunities)
	for p := 0; p < cfg.NumPapers; p++ {
		c := r.Intn(numCommunities)
		for samplers[c] == nil { // empty community: redraw
			c = r.Intn(numCommunities)
		}
		nAuth := 1 + r.Intn(maxAuthorsPerPaper)
		authors := make([]int32, 0, nAuth)
		seen := make(map[int32]bool, nAuth)
		for len(authors) < nAuth {
			a := byCommunity[c][samplers[c].Sample(r)]
			if !seen[a] {
				seen[a] = true
				authors = append(authors, a)
			}
			if len(seen) >= len(byCommunity[c]) {
				break
			}
		}
		for _, a := range authors {
			d.PaperCount[a]++
		}

		// Citations to earlier papers.
		if p > 0 {
			nCites := 3 + r.Intn(maxCitesPerPaper-2)
			for cite := 0; cite < nCites; cite++ {
				var target int
				if r.Bernoulli(sameCommunityBias) && len(byCommunityPapers[c]) > 0 {
					target = byCommunityPapers[c][r.Intn(len(byCommunityPapers[c]))]
				} else {
					target = r.Intn(p)
				}
				for _, cited := range papers[target].authors {
					for _, citing := range authors {
						if cited != citing {
							pairs = append(pairs, diffusion.Pair{Source: cited, Target: citing})
						}
					}
				}
			}
		}
		papers = append(papers, paper{community: c, authors: authors})
		byCommunityPapers[c] = append(byCommunityPapers[c], p)
	}

	// 80/20 split of the influence relationships.
	perm := r.Perm(len(pairs))
	nTrain := int(float64(len(pairs)) * trainFraction)
	d.TrainPairs = make([]diffusion.Pair, 0, nTrain)
	d.TestPairs = make([]diffusion.Pair, 0, len(pairs)-nTrain)
	for i, j := range perm {
		if i < nTrain {
			d.TrainPairs = append(d.TrainPairs, pairs[j])
		} else {
			d.TestPairs = append(d.TestPairs, pairs[j])
		}
	}
	return d, nil
}

// TrainGraph builds the directed author-influence graph induced by the
// training pairs — the substrate of the conventional model's IC simulation.
func (d *Data) TrainGraph() *graph.Graph {
	b := graph.NewBuilder(d.Config.NumAuthors)
	for _, p := range d.TrainPairs {
		// AddEdge only fails on negative IDs, which Generate never emits.
		if err := b.AddEdge(p.Source, p.Target); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// FollowerSets groups pair targets by source: followers[u] is the sorted
// distinct set of authors that u influenced in the given pair list.
func FollowerSets(numAuthors int32, pairs []diffusion.Pair) [][]int32 {
	sets := make([]map[int32]bool, numAuthors)
	for _, p := range pairs {
		if sets[p.Source] == nil {
			sets[p.Source] = make(map[int32]bool)
		}
		sets[p.Source][p.Target] = true
	}
	out := make([][]int32, numAuthors)
	for u, set := range sets {
		if len(set) == 0 {
			continue
		}
		lst := make([]int32, 0, len(set))
		for v := range set {
			lst = append(lst, v)
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		out[u] = lst
	}
	return out
}

// MostProlific returns the k authors with the most papers, descending —
// Table VI examines the three most-published authors.
func (d *Data) MostProlific(k int) []int32 {
	idx := make([]int32, d.Config.NumAuthors)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		if d.PaperCount[idx[i]] != d.PaperCount[idx[j]] {
			return d.PaperCount[idx[i]] > d.PaperCount[idx[j]]
		}
		return idx[i] < idx[j]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
