// Package ic implements the two classical influence-spread models the paper
// builds its baselines on — the Independent Cascade (IC) model and the
// Linear Threshold (LT) model — together with the Monte-Carlo machinery
// used to score diffusion prediction for edge-probability methods.
//
// The IC simulators (SimulateIC, MonteCarlo, ExpectedSpread) run over an
// EdgeProbs table that stores one probability per edge beside the graph's
// CSR adjacency; Tabulate fills one from any EdgeProber. SimulateLT and
// ActivationProb consume the EdgeProber interface directly, which the
// DE/ST/EM/Emb-IC baselines implement.
package ic

import (
	"context"
	"fmt"
	"math"

	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// EdgeProber supplies the influence probability P_uv of a directed edge.
// Implementations return 0 for non-edges. Prob must be a pure function of
// (u, v) for as long as a caller uses it: Tabulate reads each edge once and
// the table answers for the prober from then on.
type EdgeProber interface {
	Prob(u, v int32) float64
}

// Tabulate reads p once per edge of g, in CSR order, into an EdgeProbs.
// Each value is stored as returned, neither clamped nor validated, so a NaN
// never fires in the IC simulators. ctx is checked between source nodes; on
// expiry the partial table is discarded and ctx.Err() is returned.
func Tabulate(ctx context.Context, g *graph.Graph, p EdgeProber) (*EdgeProbs, error) {
	e := NewEdgeProbs(g)
	for u := int32(0); u < g.NumNodes(); u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		adj := g.OutNeighbors(u)
		row := e.p[e.offset(u):][:len(adj)]
		for j, v := range adj {
			row[j] = p.Prob(u, v)
		}
	}
	return e, nil
}

// ActivationProb is the one-shot activation probability of Eq. 8:
// Pr(v) = 1 − ∏_{u∈active} (1 − P_uv).
func ActivationProb(p EdgeProber, active []int32, v int32) float64 {
	stay := 1.0
	for _, u := range active {
		stay *= 1 - p.Prob(u, v)
	}
	return 1 - stay
}

// SimulateIC runs one independent-cascade realization from the seed set and
// returns the activation mask. Each newly activated node gets a single
// chance to activate each currently inactive out-neighbor with the edge's
// probability; the process ends when no new node activates.
func SimulateIC(p *EdgeProbs, seeds []int32, r *rng.RNG) []bool {
	active := make([]bool, p.g.NumNodes())
	p.cascade(seeds, r, active, nil)
	return active
}

// cascade runs one IC realization, marking each node it activates in active
// and appending it to queue[:0]. The queue is the breadth-first frontier:
// the sanitized seeds (in range, first occurrence) in order, then every
// activation in discovery order. One r.Float64() is drawn per trial on a
// not-yet-active out-neighbor, in frontier order then adjacency order.
func (e *EdgeProbs) cascade(seeds []int32, r *rng.RNG, active []bool, queue []int32) []int32 {
	queue = queue[:0]
	for _, s := range seeds {
		if s >= 0 && s < e.g.NumNodes() && !active[s] {
			active[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		adj := e.g.OutNeighbors(u)
		p := e.p[e.offset(u):][:len(adj)] // len(adj) lets the compiler drop p[j]'s bounds check
		for j, v := range adj {
			if !active[v] && r.Float64() < p[j] {
				active[v] = true
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// SimulateLT runs one linear-threshold realization: each node draws a
// uniform threshold, and an inactive node activates once the summed weights
// of its active in-neighbors reach the threshold. Weights are read from the
// prober; callers should provide weights with ∑_u w_uv ≤ 1 (the DE
// 1/indegree weighting satisfies this exactly).
func SimulateLT(g *graph.Graph, w EdgeProber, seeds []int32, r *rng.RNG) []bool {
	n := g.NumNodes()
	active := make([]bool, n)
	threshold := make([]float64, n)
	influence := make([]float64, n)
	for v := int32(0); v < n; v++ {
		threshold[v] = r.Float64()
	}
	frontier := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if s >= 0 && s < n && !active[s] {
			active[s] = true
			frontier = append(frontier, s)
		}
	}
	var next []int32
	for len(frontier) > 0 {
		next = next[:0]
		for _, u := range frontier {
			for _, v := range g.OutNeighbors(u) {
				if active[v] {
					continue
				}
				influence[v] += w.Prob(u, v)
				if influence[v] >= threshold[v] {
					active[v] = true
					next = append(next, v)
				}
			}
		}
		frontier, next = next, frontier
	}
	return active
}

// MonteCarlo estimates each node's activation probability from the seed set
// by averaging over runs IC simulations (the paper uses 5,000 for the
// diffusion-prediction task). It returns a probability per node; seeds
// report 1.
//
// Cancellation is observed between simulation runs — not only between whole
// estimations — so a serving deadline bounds the latency of even a single
// expensive spread evaluation. On expiry the partial estimate is discarded
// and ctx.Err() is returned.
func MonteCarlo(ctx context.Context, p *EdgeProbs, seeds []int32, runs int, r *rng.RNG) ([]float64, error) {
	counts, err := p.activations(ctx, seeds, runs, r)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(counts))
	for v, c := range counts {
		probs[v] = float64(c) / float64(runs)
	}
	return probs, nil
}

// ExpectedSpread estimates the expected cascade size from the seed set — the
// influence-maximization objective used by the viral-marketing example and
// the /v1/seeds workload. Like MonteCarlo it observes ctx between simulation
// runs and returns ctx.Err() on expiry.
func ExpectedSpread(ctx context.Context, p *EdgeProbs, seeds []int32, runs int, r *rng.RNG) (float64, error) {
	counts, err := p.activations(ctx, seeds, runs, r)
	if err != nil {
		return 0, err
	}
	// MonteCarlo's per-node probabilities, summed in node order: summing
	// the counts first would round differently. A node never active adds
	// +0, which leaves the sum's bits alone, so it is skipped.
	var total float64
	for _, c := range counts {
		if c != 0 {
			total += float64(c) / float64(runs)
		}
	}
	return total, nil
}

// activations simulates IC runs times and returns how often each node was
// active, checking ctx before every run.
func (e *EdgeProbs) activations(ctx context.Context, seeds []int32, runs int, r *rng.RNG) ([]int64, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("ic: MonteCarlo needs positive runs, got %d", runs)
	}
	counts := make([]int64, e.g.NumNodes())
	active := make([]bool, e.g.NumNodes())
	var queue []int32
	for i := 0; i < runs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Only the activated nodes are counted and cleared, so a run costs
		// its cascade, not a pass over every node.
		queue = e.cascade(seeds, r, active, queue)
		for _, v := range queue {
			counts[v]++
			active[v] = false
		}
	}
	return counts, nil
}

// EdgeProbs is a concrete EdgeProber storing one probability per edge of a
// fixed graph, laid out parallel to the graph's CSR adjacency so lookups
// cost one binary search and the IC simulators read P_uv beside u's
// out-neighbors without one. It is the storage used by the ST and EM
// baselines.
type EdgeProbs struct {
	g       *graph.Graph
	p       []float64 // parallel to the graph's out-adjacency
	offsets []int64   // CSR offset of each node's first out-edge
}

// NewEdgeProbs allocates zeroed probabilities for every edge of g.
func NewEdgeProbs(g *graph.Graph) *EdgeProbs {
	offsets := make([]int64, g.NumNodes()+1)
	for u := int32(0); u < g.NumNodes(); u++ {
		offsets[u+1] = offsets[u] + int64(g.OutDegree(u))
	}
	return &EdgeProbs{g: g, p: make([]float64, g.NumEdges()), offsets: offsets}
}

// Graph returns the underlying graph.
func (e *EdgeProbs) Graph() *graph.Graph { return e.g }

// index locates the storage slot of edge (u,v).
func (e *EdgeProbs) index(u, v int32) (int64, bool) {
	adj := e.g.OutNeighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(adj) || adj[lo] != v {
		return 0, false
	}
	return e.offset(u) + int64(lo), true
}

// offset returns the CSR offset of node u's first out-edge.
func (e *EdgeProbs) offset(u int32) int64 { return e.offsets[u] }

// Set assigns P_uv. It returns an error if (u,v) is not an edge of the
// graph, or the probability is outside [0,1].
func (e *EdgeProbs) Set(u, v int32, prob float64) error {
	if math.IsNaN(prob) || prob < 0 || prob > 1 {
		return fmt.Errorf("ic: probability %v outside [0,1] for edge (%d,%d)", prob, u, v)
	}
	i, ok := e.index(u, v)
	if !ok {
		return fmt.Errorf("ic: (%d,%d) is not an edge", u, v)
	}
	e.p[i] = prob
	return nil
}

// Prob returns P_uv, or 0 when (u,v) is not an edge.
func (e *EdgeProbs) Prob(u, v int32) float64 {
	i, ok := e.index(u, v)
	if !ok {
		return 0
	}
	return e.p[i]
}

// Index returns the stable storage slot of edge (u,v), for callers (such as
// the EM baseline) that repeatedly address the same edges. The slot is
// valid for ProbAt/SetAt for the lifetime of the EdgeProbs.
func (e *EdgeProbs) Index(u, v int32) (int64, bool) { return e.index(u, v) }

// ProbAt returns the probability in slot i (from Index).
func (e *EdgeProbs) ProbAt(i int64) float64 { return e.p[i] }

// SetAt assigns the probability in slot i (from Index), clamping to [0,1]
// to absorb floating-point drift in iterative estimators.
func (e *EdgeProbs) SetAt(i int64, prob float64) {
	if prob < 0 {
		prob = 0
	} else if prob > 1 {
		prob = 1
	}
	e.p[i] = prob
}

// NumEdges returns the number of stored edge slots.
func (e *EdgeProbs) NumEdges() int64 { return int64(len(e.p)) }

// Fill sets every edge probability to prob.
func (e *EdgeProbs) Fill(prob float64) {
	for i := range e.p {
		e.p[i] = prob
	}
}
