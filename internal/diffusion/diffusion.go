// Package diffusion extracts social influence pairs (the paper's
// Definition 1) and per-episode influence propagation networks
// (Definition 3) from a social graph and an action log.
//
// A social influence pair (u -> v) exists in episode D_i when both users
// adopted item i, the directed social edge (u,v) exists (v watches u), and
// u adopted strictly before v. The propagation network of an episode is the
// directed graph over the episode's adopters whose edges are exactly the
// episode's influence pairs; because every edge goes forward in time it is a
// DAG by construction.
package diffusion

import (
	"sort"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/graph"
)

// Pair is a directed social influence pair: Source influenced Target.
type Pair struct {
	Source int32
	Target int32
}

// EpisodePairs returns all social influence pairs of one episode in
// deterministic (target-chronological, then source-chronological) order.
func EpisodePairs(g *graph.Graph, e *actionlog.Episode) []Pair {
	when := make(map[int32]float64, e.Len())
	for _, r := range e.Records {
		when[r.User] = r.Time
	}
	var pairs []Pair
	for _, r := range e.Records {
		v := r.User
		for _, u := range g.InNeighbors(v) {
			if tu, ok := when[u]; ok && tu < r.Time {
				pairs = append(pairs, Pair{Source: u, Target: v})
			}
		}
	}
	return pairs
}

// PropNet is the influence propagation network of one episode, stored over
// local indices 0..NumNodes-1 that map to the episode's adopters in
// chronological order. Edges always point from an earlier local index to a
// later one, so the network is acyclic by construction.
type PropNet struct {
	Item  int32
	users []int32   // local index -> user ID, chronological adoption order
	out   [][]int32 // local adjacency: out[i] lists local successor indices
	edges int
}

// BuildPropNet extracts the propagation network of episode e under graph g.
// All of the episode's adopters appear as nodes (V_i); users involved in no
// influence pair are isolated nodes, which still matters because the global
// user-similarity context samples uniformly from V_i.
func BuildPropNet(g *graph.Graph, e *actionlog.Episode) *PropNet {
	n := e.Len()
	pn := &PropNet{
		Item:  e.Item,
		users: make([]int32, n),
		out:   make([][]int32, n),
	}
	local := make(map[int32]int32, n)
	for i, r := range e.Records {
		pn.users[i] = r.User
		local[r.User] = int32(i)
	}
	for j, r := range e.Records {
		v := r.User
		for _, u := range g.InNeighbors(v) {
			i, ok := local[u]
			if !ok {
				continue
			}
			if e.Records[i].Time < r.Time {
				pn.out[i] = append(pn.out[i], int32(j))
				pn.edges++
			}
		}
	}
	for i := range pn.out {
		sort.Slice(pn.out[i], func(a, b int) bool { return pn.out[i][a] < pn.out[i][b] })
	}
	return pn
}

// NumNodes returns |V_i|, the number of adopters in the episode.
func (p *PropNet) NumNodes() int { return len(p.users) }

// NumEdges returns |E_i|, the number of influence pairs.
func (p *PropNet) NumEdges() int { return p.edges }

// User maps a local index to the original user ID.
func (p *PropNet) User(local int32) int32 { return p.users[local] }

// Users returns the adopters in chronological order as a shared read-only
// slice.
func (p *PropNet) Users() []int32 { return p.users }

// OutLocal returns the local successor indices of local node i (shared,
// read-only).
func (p *PropNet) OutLocal(i int32) []int32 { return p.out[i] }

// PairCounts aggregates influence-pair frequencies over a whole log. It
// backs the paper's Figures 1 and 2 (source/target frequency distributions)
// and the Figure 6 top-frequency pair selection.
type PairCounts struct {
	numUsers int32
	counts   map[Pair]int64
	total    int64
}

// CountPairs scans every episode of the log and tallies each influence
// pair's occurrence count.
func CountPairs(g *graph.Graph, l *actionlog.Log) *PairCounts {
	pc := &PairCounts{numUsers: l.NumUsers(), counts: make(map[Pair]int64)}
	l.Episodes(func(e *actionlog.Episode) {
		for _, p := range EpisodePairs(g, e) {
			pc.counts[p]++
			pc.total++
		}
	})
	return pc
}

// Total returns the total number of (pair, episode) observations.
func (pc *PairCounts) Total() int64 { return pc.total }

// NumDistinct returns the number of distinct pairs observed.
func (pc *PairCounts) NumDistinct() int { return len(pc.counts) }

// Count returns the observation count of one pair.
func (pc *PairCounts) Count(p Pair) int64 { return pc.counts[p] }

// SourceFrequencies returns, per user, how many times the user appears as a
// pair source (summed over pair multiplicity) — the X-axis variable of
// Figure 1.
func (pc *PairCounts) SourceFrequencies() []int64 {
	freq := make([]int64, pc.numUsers)
	for p, c := range pc.counts {
		freq[p.Source] += c
	}
	return freq
}

// TargetFrequencies returns, per user, how many times the user appears as a
// pair target — the X-axis variable of Figure 2.
func (pc *PairCounts) TargetFrequencies() []int64 {
	freq := make([]int64, pc.numUsers)
	for p, c := range pc.counts {
		freq[p.Target] += c
	}
	return freq
}

// PairCount is a pair with its observation count.
type PairCount struct {
	Pair  Pair
	Count int64
}

// TopPairs returns the k most frequent pairs in descending count order
// (ties broken by source then target ID for determinism). If fewer than k
// distinct pairs exist, all are returned.
func (pc *PairCounts) TopPairs(k int) []PairCount {
	all := make([]PairCount, 0, len(pc.counts))
	for p, c := range pc.counts {
		all = append(all, PairCount{Pair: p, Count: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		if all[i].Pair.Source != all[j].Pair.Source {
			return all[i].Pair.Source < all[j].Pair.Source
		}
		return all[i].Pair.Target < all[j].Pair.Target
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}
