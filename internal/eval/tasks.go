package eval

import (
	"context"
	"fmt"
	"sort"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/graph"
	"inf2vec/internal/ic"
	"inf2vec/internal/rng"
)

// PairScorer scores the learned likelihood x(u,v) that user u influences
// user v. Latent representation models (Inf2vec, MF, node2vec, and the
// embedding store itself) implement it.
type PairScorer interface {
	Score(u, v int32) float64
}

// ScoreFunc scores one activation-prediction candidate v given the
// time-ordered set of already-active users that can influence it.
type ScoreFunc func(active []int32, v int32) float64

// LatentActivationScorer adapts a PairScorer plus an Eq. 7 aggregator to the
// activation-prediction task.
func LatentActivationScorer(s PairScorer, agg Aggregator) ScoreFunc {
	return func(active []int32, v int32) float64 {
		xs := make([]float64, len(active))
		for i, u := range active {
			xs[i] = s.Score(u, v)
		}
		y, err := agg.Aggregate(xs)
		if err != nil {
			// The replay protocol only scores candidates with at least one
			// active neighbor (activationCandidates filters the rest), so an
			// empty set is a caller bug; zero — no influence evidence — is
			// the safe answer.
			return 0
		}
		return y
	}
}

// ICActivationScorer adapts an edge-probability model to the
// activation-prediction task through Eq. 8.
func ICActivationScorer(p ic.EdgeProber) ScoreFunc {
	return func(active []int32, v int32) float64 {
		return ic.ActivationProb(p, active, v)
	}
}

// ActivationPrediction runs the §V-B1 protocol over every test episode:
// replay the episode, collect candidate users (users with at least one
// episode adopter among their in-neighbors), score each candidate from its
// set of active friends, and rank.
//
// Ground-truth positives are adopters influenced by their neighbors — i.e.
// episode members with at least one friend active strictly before their own
// adoption. Episode members none of whose friends adopted first are excluded
// from the candidate set (they are neither influence successes nor
// failures); non-members are negatives. Every candidate — positive or
// negative — is scored from the full, time-ordered set of its
// episode-adopting friends: scoring positives from only their earlier-active
// friends would make |S_v| systematically smaller for positives than for
// negatives, and Eq. 8 scores grow monotonically with |S_v|, which would
// bias every IC method below chance. Per-episode metrics are averaged over
// episodes.
func ActivationPrediction(g *graph.Graph, test *actionlog.Log, score ScoreFunc) (Metrics, error) {
	if g.NumNodes() < test.NumUsers() {
		return Metrics{}, fmt.Errorf("eval: graph has %d nodes, log universe is %d", g.NumNodes(), test.NumUsers())
	}
	var acc metricAccumulator
	test.Episodes(func(e *actionlog.Episode) {
		acc.add(activationCandidates(g, e, score))
	})
	return acc.metrics(), nil
}

// activationCandidates builds the scored candidate list of one episode.
func activationCandidates(g *graph.Graph, e *actionlog.Episode, score ScoreFunc) []ScoredCandidate {
	when := make(map[int32]float64, e.Len())
	for _, r := range e.Records {
		when[r.User] = r.Time
	}
	// Candidate set: out-neighbors of adopters.
	seen := make(map[int32]bool)
	var cands []ScoredCandidate
	for _, r := range e.Records {
		for _, v := range g.OutNeighbors(r.User) {
			if seen[v] {
				continue
			}
			seen[v] = true
			tv, isMember := when[v]
			// Adopter friends of v in activation order, and whether any
			// adopted before v did (the influence ground truth).
			var active []int32
			influenced := false
			for _, rec := range e.Records {
				if rec.User == v || !g.HasEdge(rec.User, v) {
					continue
				}
				active = append(active, rec.User)
				if isMember && rec.Time < tv {
					influenced = true
				}
			}
			if len(active) == 0 || (isMember && !influenced) {
				// Member adopted before any friend: excluded per protocol.
				continue
			}
			cands = append(cands, ScoredCandidate{
				User:  v,
				Score: score(active, v),
				Label: isMember,
			})
		}
	}
	return cands
}

// DiffusionScoreFunc scores every user in the universe given the
// time-ordered seed set of one episode.
type DiffusionScoreFunc func(seeds []int32) ([]float64, error)

// LatentDiffusionScorer adapts a PairScorer to the diffusion-prediction
// task: each user's score aggregates its pair scores from all seeds (Eq. 7).
func LatentDiffusionScorer(s PairScorer, agg Aggregator, numUsers int32) DiffusionScoreFunc {
	return func(seeds []int32) ([]float64, error) {
		if len(seeds) == 0 {
			return nil, fmt.Errorf("eval: empty seed set")
		}
		scores := make([]float64, numUsers)
		xs := make([]float64, len(seeds))
		for v := int32(0); v < numUsers; v++ {
			for i, u := range seeds {
				xs[i] = s.Score(u, v)
			}
			y, err := agg.Aggregate(xs)
			if err != nil {
				return nil, err
			}
			scores[v] = y
		}
		return scores, nil
	}
}

// MonteCarloDiffusionScorer adapts an edge-probability model to the
// diffusion-prediction task: each user's score is its activation frequency
// over runs IC simulations from the seeds (the paper uses 5,000 runs). The
// first call tabulates p (ic.Tabulate); every call simulates over the table.
func MonteCarloDiffusionScorer(g *graph.Graph, p ic.EdgeProber, runs int, seed uint64) DiffusionScoreFunc {
	r := rng.New(seed)
	var table *ic.EdgeProbs
	return func(seeds []int32) ([]float64, error) {
		if table == nil {
			t, err := ic.Tabulate(context.Background(), g, p)
			if err != nil {
				return nil, err
			}
			table = t
		}
		return ic.MonteCarlo(context.Background(), table, seeds, runs, r)
	}
}

// DiffusionPrediction runs the §V-B2 protocol: for each test episode the
// first seedFrac (paper: 5%) of adopters — at least one — become the seed
// set, the remaining adopters are ground-truth positives, and every other
// user of the universe is a negative. Episodes with fewer than two adopters
// carry no ground truth and are skipped.
func DiffusionPrediction(g *graph.Graph, test *actionlog.Log, score DiffusionScoreFunc, seedFrac float64) (Metrics, error) {
	if seedFrac <= 0 || seedFrac >= 1 {
		return Metrics{}, fmt.Errorf("eval: seed fraction %v outside (0,1)", seedFrac)
	}
	if g.NumNodes() < test.NumUsers() {
		return Metrics{}, fmt.Errorf("eval: graph has %d nodes, log universe is %d", g.NumNodes(), test.NumUsers())
	}
	var acc metricAccumulator
	var firstErr error
	test.Episodes(func(e *actionlog.Episode) {
		if firstErr != nil || e.Len() < 2 {
			return
		}
		numSeeds := int(float64(e.Len()) * seedFrac)
		if numSeeds < 1 {
			numSeeds = 1
		}
		users := e.Users()
		seeds := users[:numSeeds]
		scores, err := score(seeds)
		if err != nil {
			firstErr = err
			return
		}
		if int32(len(scores)) < test.NumUsers() {
			firstErr = fmt.Errorf("eval: scorer returned %d scores for %d users", len(scores), test.NumUsers())
			return
		}
		isSeed := make(map[int32]bool, numSeeds)
		for _, s := range seeds {
			isSeed[s] = true
		}
		positive := make(map[int32]bool, e.Len()-numSeeds)
		for _, u := range users[numSeeds:] {
			positive[u] = true
		}
		cands := make([]ScoredCandidate, 0, test.NumUsers()-int32(numSeeds))
		for v := int32(0); v < test.NumUsers(); v++ {
			if isSeed[v] {
				continue
			}
			cands = append(cands, ScoredCandidate{User: v, Score: scores[v], Label: positive[v]})
		}
		acc.add(cands)
	})
	if firstErr != nil {
		return Metrics{}, firstErr
	}
	return acc.metrics(), nil
}

// PriorActiveFriendCounts returns, for every adoption in the log, how many
// of the adopter's friends (in-neighbors) had already adopted the same item
// — the variable whose CDF is the paper's Figure 3.
func PriorActiveFriendCounts(g *graph.Graph, l *actionlog.Log) []int {
	var counts []int
	l.Episodes(func(e *actionlog.Episode) {
		when := make(map[int32]float64, e.Len())
		for _, r := range e.Records {
			when[r.User] = r.Time
		}
		for _, r := range e.Records {
			n := 0
			for _, u := range g.InNeighbors(r.User) {
				if tu, ok := when[u]; ok && tu < r.Time {
					n++
				}
			}
			counts = append(counts, n)
		}
	})
	sort.Ints(counts)
	return counts
}
