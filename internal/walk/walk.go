// Package walk implements the random-walk machinery of the reproduction:
//
//   - random walk with restart over influence propagation networks, which
//     generates Inf2vec's local influence context (paper §IV-A1, restart
//     ratio 0.5 following node2vec's default), and
//   - node2vec second-order biased walks over the social graph, which back
//     the node2vec baseline (Grover & Leskovec).
package walk

import (
	"inf2vec/internal/diffusion"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// AppendRestart generates up to length local-index context nodes by a random
// walk with restart on the propagation network pn, starting at local node
// start, and appends them to dst.
//
// Each step moves to a uniformly random successor of the current node and
// records it; after every move the walk returns to start with probability
// restart. A node with no successors sends the walk back to start; if start
// itself has no successors the walk ends immediately (the local context of
// an influence sink is empty) and dst is returned unchanged. Returned
// indices may repeat — the context is a multiset, exactly as repeated words
// are in word2vec.
//
// Callers that generate many contexts (corpus generation walks once per
// adopter per episode) pass a reusable buffer to avoid one allocation per
// walk; dst's backing array is reused when capacity allows.
func AppendRestart(pn *diffusion.PropNet, start int32, length int, restart float64, r *rng.RNG, dst []int32) []int32 {
	if length <= 0 || len(pn.OutLocal(start)) == 0 {
		return dst
	}
	base := len(dst)
	cur := start
	for len(dst)-base < length {
		succ := pn.OutLocal(cur)
		if len(succ) == 0 {
			cur = start
			continue
		}
		next := succ[r.Intn(len(succ))]
		dst = append(dst, next)
		if r.Float64() < restart {
			cur = start
		} else {
			cur = next
		}
	}
	return dst
}

// Node2vec performs second-order biased random walks on a directed graph,
// following out-edges. Return parameter P and in-out parameter Q control the
// bias exactly as in the node2vec paper: from the previous node t at current
// node v, candidate x is weighted 1/P if x == t, 1 if t has an edge to x
// (distance one from t), and 1/Q otherwise.
type Node2vec struct {
	G *graph.Graph
	P float64
	Q float64
}

// Walk returns a walk of at most length nodes starting at start (inclusive).
// The walk terminates early at a node with no out-neighbors.
func (w *Node2vec) Walk(start int32, length int, r *rng.RNG) []int32 {
	if length <= 0 {
		return nil
	}
	path := make([]int32, 1, length)
	path[0] = start
	if length == 1 {
		return path
	}
	// First hop is unbiased.
	first := w.G.OutNeighbors(start)
	if len(first) == 0 {
		return path
	}
	path = append(path, first[r.Intn(len(first))])

	weights := make([]float64, 0, 64)
	for len(path) < length {
		t := path[len(path)-2]
		v := path[len(path)-1]
		succ := w.G.OutNeighbors(v)
		if len(succ) == 0 {
			break
		}
		weights = weights[:0]
		var total float64
		for _, x := range succ {
			var wgt float64
			switch {
			case x == t:
				wgt = 1 / w.P
			case w.G.HasEdge(t, x):
				wgt = 1
			default:
				wgt = 1 / w.Q
			}
			total += wgt
			weights = append(weights, total)
		}
		u := r.Float64() * total
		// Linear scan: out-degrees at our scale are small and the cumulative
		// slice is cache-resident.
		next := succ[len(succ)-1]
		for i, cum := range weights {
			if u < cum {
				next = succ[i]
				break
			}
		}
		path = append(path, next)
	}
	return path
}

// WindowPairs converts a walk into skip-gram (center, context) training
// pairs with the given window radius, calling emit for each pair. This is
// the standard DeepWalk/node2vec corpus construction.
func WindowPairs(path []int32, window int, emit func(center, context int32)) {
	for i, c := range path {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window
		if hi > len(path)-1 {
			hi = len(path) - 1
		}
		for j := lo; j <= hi; j++ {
			if j != i {
				emit(c, path[j])
			}
		}
	}
}
