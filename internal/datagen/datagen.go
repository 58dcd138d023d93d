// Package datagen synthesizes social networks and action logs that stand in
// for the paper's Digg and Flickr datasets, which cannot be downloaded in
// this offline environment (see DESIGN.md §1 for the substitution
// rationale).
//
// The generator plants exactly the structure the paper's §III observations
// describe and the Inf2vec model exploits:
//
//   - a directed social graph grown by preferential attachment, giving the
//     heavy-tailed degree distributions behind Figures 1 and 2;
//   - ground-truth edge influence probabilities P_uv = base · ability(u) ·
//     conformity(v), with Pareto-distributed abilities, so some users are
//     extremely influential (Figure 1's tail);
//   - topic-based user interests, so users with similar interests adopt the
//     same items without any influence — the "70% of adoptions happen with
//     zero previously-active friends" mass at x=0 of Figure 3;
//   - action logs produced by simulating, per item, spontaneous
//     interest-driven adoptions followed by an independent-cascade
//     propagation over the planted probabilities with exponential delays.
//
// Because both an influence channel and an interest channel exist in the
// log, a method using only one of them (pure IC learners; pure
// similarity MF) recovers only part of the signal — which is precisely the
// experimental contrast the paper's Tables II and III demonstrate.
package datagen

import (
	"container/heap"
	"fmt"
	"math"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/graph"
	"inf2vec/internal/ic"
	"inf2vec/internal/rng"
)

// Shape parameters both presets share.
const (
	// abilityCap truncates the Pareto ability draws. The cap keeps a single
	// super-influencer hub from flipping the whole cascade regime, which
	// keeps dataset character stable across seeds while preserving the
	// heavy tail below the cap.
	abilityCap = 15
	// activityAlpha is the Pareto shape of per-user activity levels —
	// heavy-tailed adoption propensity, like real Digg's super-voters. The
	// draws are capped at activityCap and normalized to mean 1 so the
	// expected action volume stays put.
	activityAlpha = 1.4
	activityCap   = 12
	// meanDelay is the mean of the exponential propagation delay.
	meanDelay = 1
)

// Config parameterizes dataset synthesis.
type Config struct {
	// Name labels the dataset in reports ("digg-like", "flickr-like").
	Name string
	// NumUsers and NumItems size the universe.
	NumUsers int32
	NumItems int32
	// EdgesPerUser is the mean out-degree of the preferential-attachment
	// graph.
	EdgesPerUser int
	// Reciprocity is the probability a generated edge also gets its
	// reverse (social ties are often mutual).
	Reciprocity float64
	// NumTopics is the number of interest topics.
	NumTopics int
	// InterestSharpness in (0,1] is the weight a user puts on their primary
	// topic; the remainder spreads uniformly.
	InterestSharpness float64
	// AbilityAlpha is the Pareto shape of user influence ability; smaller
	// means heavier tail (more extreme influencers).
	AbilityAlpha float64
	// BaseInfluence scales the planted probability of ordinary (weak-tie)
	// edges.
	BaseInfluence float64
	// StrongTieFraction scales the probability that an edge is a strong
	// tie; a source's strong-tie odds are StrongTieFraction times its
	// ability, so influential users hold more strong ties (heavy-tailed
	// source frequencies, Figure 1). Without strong ties every edge is
	// near-zero and no learner — ST, EM or Inf2vec — has anything to
	// recover.
	StrongTieFraction float64
	// StrongTieProb is the planted probability scale of strong-tie edges.
	StrongTieProb float64
	// MaxEdgeProb caps the planted edge probabilities.
	MaxEdgeProb float64
	// SpontaneousRate is the per-user, per-item probability scale of
	// adopting without influence (multiplied by the user's interest in the
	// item's topic and the user's activity level).
	SpontaneousRate float64
	// ObservationRate is the probability that an adoption makes it into
	// the recorded action log. Real vote/favorite logs are partial views
	// of the underlying adoption process; partial observability is one of
	// the sparsity sources the paper argues edge-wise estimators handle
	// poorly (an unobserved success looks like a failed trial to them).
	ObservationRate float64
	// Seed drives the full generation.
	Seed uint64
}

// DiggLike returns the configuration whose synthetic log mirrors the Digg
// dataset's character: moderate density, strong interest channel (~70% of
// adoptions have no previously-active friend, Figure 3).
func DiggLike(seed uint64) Config {
	return Config{
		Name:              "digg-like",
		NumUsers:          2000,
		NumItems:          450,
		EdgesPerUser:      8,
		Reciprocity:       0.3,
		NumTopics:         10,
		InterestSharpness: 0.78,
		AbilityAlpha:      1.6,
		BaseInfluence:     0.003,
		StrongTieFraction: 0.032,
		StrongTieProb:     0.3,
		MaxEdgeProb:       0.8,
		SpontaneousRate:   0.02,
		ObservationRate:   0.75,
		Seed:              seed,
	}
}

// FlickrLike returns the configuration mirroring the Flickr dataset's
// character: much denser graph, stronger influence share (~50% of adoptions
// follow an active friend) but a weaker per-episode signal, yielding the
// paper's lower absolute metric values.
func FlickrLike(seed uint64) Config {
	return Config{
		Name:              "flickr-like",
		NumUsers:          2500,
		NumItems:          400,
		EdgesPerUser:      20,
		Reciprocity:       0.5,
		NumTopics:         16,
		InterestSharpness: 0.6,
		AbilityAlpha:      1.8,
		BaseInfluence:     0.0015,
		StrongTieFraction: 0.018,
		StrongTieProb:     0.28,
		MaxEdgeProb:       0.6,
		SpontaneousRate:   0.015,
		ObservationRate:   0.8,
		Seed:              seed,
	}
}

// Dataset is a generated social network with its action log and the planted
// ground truth.
type Dataset struct {
	Config Config
	Graph  *graph.Graph
	Log    *actionlog.Log
	// TrueProbs is the planted edge influence probability (hidden from the
	// learners; available to verify recovery).
	TrueProbs *ic.EdgeProbs
	// Interest[u][z] is user u's affinity for topic z (rows sum to 1).
	Interest [][]float64
	// Activity[u] is user u's adoption propensity (mean 1, heavy-tailed).
	Activity []float64
	// ItemTopic[i] is item i's topic.
	ItemTopic []int
}

// validate rejects out-of-range parameters.
func (cfg Config) validate() error {
	switch {
	case cfg.NumUsers < 2:
		return fmt.Errorf("datagen: NumUsers %d < 2", cfg.NumUsers)
	case cfg.NumItems < 1:
		return fmt.Errorf("datagen: NumItems %d < 1", cfg.NumItems)
	case cfg.EdgesPerUser < 1:
		return fmt.Errorf("datagen: EdgesPerUser %d < 1", cfg.EdgesPerUser)
	case cfg.Reciprocity < 0 || cfg.Reciprocity > 1:
		return fmt.Errorf("datagen: Reciprocity %v outside [0,1]", cfg.Reciprocity)
	case cfg.NumTopics < 1:
		return fmt.Errorf("datagen: NumTopics %d < 1", cfg.NumTopics)
	case cfg.InterestSharpness <= 0 || cfg.InterestSharpness > 1:
		return fmt.Errorf("datagen: InterestSharpness %v outside (0,1]", cfg.InterestSharpness)
	case cfg.AbilityAlpha <= 0:
		return fmt.Errorf("datagen: AbilityAlpha %v must be positive", cfg.AbilityAlpha)
	case cfg.BaseInfluence < 0 || cfg.BaseInfluence > 1:
		return fmt.Errorf("datagen: BaseInfluence %v outside [0,1]", cfg.BaseInfluence)
	case cfg.StrongTieFraction < 0 || cfg.StrongTieFraction > 1:
		return fmt.Errorf("datagen: StrongTieFraction %v outside [0,1]", cfg.StrongTieFraction)
	case cfg.StrongTieProb < 0 || cfg.StrongTieProb > 1:
		return fmt.Errorf("datagen: StrongTieProb %v outside [0,1]", cfg.StrongTieProb)
	case cfg.MaxEdgeProb <= 0 || cfg.MaxEdgeProb > 1:
		return fmt.Errorf("datagen: MaxEdgeProb %v outside (0,1]", cfg.MaxEdgeProb)
	case cfg.SpontaneousRate < 0 || cfg.SpontaneousRate > 1:
		return fmt.Errorf("datagen: SpontaneousRate %v outside [0,1]", cfg.SpontaneousRate)
	case cfg.ObservationRate <= 0 || cfg.ObservationRate > 1:
		return fmt.Errorf("datagen: ObservationRate %v outside (0,1]", cfg.ObservationRate)
	}
	return nil
}

// Generate synthesizes a dataset from cfg.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)

	g, err := preferentialAttachment(cfg, root.Split())
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Config: cfg, Graph: g}

	// Planted influence parameters.
	abilities := make([]float64, cfg.NumUsers)
	conformities := make([]float64, cfg.NumUsers)
	abilityRNG := root.Split()
	for u := range abilities {
		abilities[u] = abilityRNG.Pareto(1, cfg.AbilityAlpha)
		if abilities[u] > abilityCap {
			abilities[u] = abilityCap
		}
		conformities[u] = 0.5 + abilityRNG.Float64() // in [0.5, 1.5)
	}
	// Interests and item topics.
	interestRNG := root.Split()
	ds.Interest = make([][]float64, cfg.NumUsers)
	rest := (1 - cfg.InterestSharpness) / float64(cfg.NumTopics)
	for u := range ds.Interest {
		row := make([]float64, cfg.NumTopics)
		primary := interestRNG.Intn(cfg.NumTopics)
		for z := range row {
			row[z] = rest
		}
		row[primary] += cfg.InterestSharpness
		ds.Interest[u] = row
	}
	ds.ItemTopic = make([]int, cfg.NumItems)
	for i := range ds.ItemTopic {
		ds.ItemTopic[i] = interestRNG.Intn(cfg.NumTopics)
	}
	ds.Activity = make([]float64, cfg.NumUsers)
	var actSum float64
	for u := range ds.Activity {
		a := interestRNG.Pareto(1, activityAlpha)
		if a > activityCap {
			a = activityCap
		}
		ds.Activity[u] = a
		actSum += a
	}
	actMean := actSum / float64(cfg.NumUsers)
	for u := range ds.Activity {
		ds.Activity[u] /= actMean
	}

	// Planted edge probabilities. Strong-tie odds scale with the source's
	// ability AND the endpoints' interest similarity (homophily): influence
	// concentrates inside interest communities, which is what lets an
	// embedding generalize influence to edges without observed propagation
	// — the paper's central argument — while an edge-wise MLE cannot.
	ds.TrueProbs = ic.NewEdgeProbs(g)
	edgeRNG := root.Split()
	g.Edges(func(u, v int32) bool {
		var p float64
		homophily := 0.0
		for z := 0; z < cfg.NumTopics; z++ {
			homophily += ds.Interest[u][z] * ds.Interest[v][z]
		}
		// Square-root damping keeps a meaningful share of strong ties
		// crossing topic boundaries: cross-topic cascades are the influence
		// evidence that pure-similarity models cannot explain, while
		// same-topic ties remain several times likelier (homophily).
		homophily = math.Sqrt(homophily * float64(cfg.NumTopics))
		strongOdds := cfg.StrongTieFraction * abilities[u] * homophily
		if edgeRNG.Float64() < strongOdds {
			p = cfg.StrongTieProb * conformities[v]
		} else {
			p = cfg.BaseInfluence * conformities[v]
		}
		if p > cfg.MaxEdgeProb {
			p = cfg.MaxEdgeProb
		}
		// Set cannot fail: (u,v) is a real edge and p is clamped.
		if err := ds.TrueProbs.Set(u, v, p); err != nil {
			panic(err)
		}
		return true
	})

	// Episode simulation.
	episodeRNG := root.Split()
	var actions []actionlog.Action
	for item := int32(0); item < cfg.NumItems; item++ {
		actions = simulateEpisode(ds, item, episodeRNG, actions)
	}
	if cfg.ObservationRate < 1 {
		kept := actions[:0]
		for _, a := range actions {
			if episodeRNG.Float64() < cfg.ObservationRate {
				kept = append(kept, a)
			}
		}
		actions = kept
	}
	log, err := actionlog.FromActions(cfg.NumUsers, actions)
	if err != nil {
		return nil, fmt.Errorf("datagen: assembling log: %w", err)
	}
	ds.Log = log
	return ds, nil
}

// preferentialAttachment grows a directed graph: each new node u links to
// EdgesPerUser existing nodes chosen proportionally to indegree+1, each
// link reversed with probability Reciprocity.
func preferentialAttachment(cfg Config, r *rng.RNG) (*graph.Graph, error) {
	b := graph.NewBuilder(cfg.NumUsers)
	// pool holds a sampling pool: node IDs repeated by attachment weight,
	// the classic Barabási–Albert trick.
	pool := make([]int32, 0, int(cfg.NumUsers)*(cfg.EdgesPerUser+1))
	pool = append(pool, 0)
	for u := int32(1); u < cfg.NumUsers; u++ {
		m := cfg.EdgesPerUser
		if int(u) < m {
			m = int(u)
		}
		for e := 0; e < m; e++ {
			// Mix preferential attachment with uniform attachment: pure PA
			// grows hubs whose reciprocal out-degree lets single nodes flip
			// the cascade regime between seeds.
			var t int32
			if r.Bernoulli(0.5) {
				t = pool[r.Intn(len(pool))]
			} else {
				t = int32(r.Intn(int(u)))
			}
			if t == u {
				continue
			}
			if err := b.AddEdge(u, t); err != nil {
				return nil, err
			}
			if r.Bernoulli(cfg.Reciprocity) {
				if err := b.AddEdge(t, u); err != nil {
					return nil, err
				}
			}
			pool = append(pool, t)
		}
		pool = append(pool, u)
	}
	return b.Build(), nil
}

// adoption is a scheduled adoption event in the cascade simulation.
type adoption struct {
	time float64
	user int32
}

type adoptionHeap []adoption

func (h adoptionHeap) Len() int           { return len(h) }
func (h adoptionHeap) Less(i, j int) bool { return h[i].time < h[j].time }
func (h adoptionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *adoptionHeap) Push(x any)        { *h = append(*h, x.(adoption)) }
func (h *adoptionHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// simulateEpisode generates one item's adoptions: spontaneous
// interest-driven seeds over a time window, then IC propagation with
// exponential delays, processed in global time order so late spontaneous
// adopters can still be counted as influenced when a friend beat them to
// it (matching how the paper's assumption reads real logs).
func simulateEpisode(ds *Dataset, item int32, r *rng.RNG, actions []actionlog.Action) []actionlog.Action {
	cfg := ds.Config
	topic := ds.ItemTopic[item]

	var h adoptionHeap
	// Spontaneous adoptions: interest-weighted Bernoulli per user, uniform
	// times over [0, 10).
	for u := int32(0); u < cfg.NumUsers; u++ {
		p := cfg.SpontaneousRate * ds.Interest[u][topic] * float64(cfg.NumTopics) * ds.Activity[u]
		if r.Float64() < p {
			heap.Push(&h, adoption{time: r.Float64() * 10, user: u})
		}
	}
	adopted := make(map[int32]bool)
	for h.Len() > 0 {
		ev := heap.Pop(&h).(adoption)
		if adopted[ev.user] {
			continue
		}
		adopted[ev.user] = true
		actions = append(actions, actionlog.Action{User: ev.user, Item: item, Time: ev.time})
		// Influence attempts on out-neighbors (single chance, IC).
		for _, v := range ds.Graph.OutNeighbors(ev.user) {
			if adopted[v] {
				continue
			}
			if r.Float64() < ds.TrueProbs.Prob(ev.user, v) {
				heap.Push(&h, adoption{time: ev.time + r.ExpFloat64()*meanDelay, user: v})
			}
		}
	}
	return actions
}
