// Package graph implements the directed social-network substrate for the
// Inf2vec reproduction.
//
// A Graph is an immutable, CSR-packed directed graph over dense int32 node
// IDs in [0, NumNodes). An edge (u,v) carries the paper's semantics: "u is a
// friend of v" — v watches u's activity, so influence flows from u to v
// along the edge direction. OutNeighbors(u) therefore enumerates the users u
// can influence, and InNeighbors(v) enumerates the users who can influence v
// (v's "friends" in the paper's candidate-user sense).
//
// Graphs are built through a Builder (which deduplicates and drops
// self-loops) and are safe for concurrent reads once built.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is an immutable directed graph in compressed-sparse-row form, packed
// in both directions so that out- and in-neighbor scans are both O(degree).
type Graph struct {
	n      int32
	outOff []int64 // len n+1; outAdj[outOff[u]:outOff[u+1]] are u's successors
	outAdj []int32 // sorted within each node's range
	inOff  []int64
	inAdj  []int32
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int32 { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.outAdj)) }

// OutNeighbors returns the successors of u (the users u can influence) as a
// shared, sorted, read-only slice. The caller must not modify it.
func (g *Graph) OutNeighbors(u int32) []int32 {
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// InNeighbors returns the predecessors of v (the users who can influence v)
// as a shared, sorted, read-only slice. The caller must not modify it.
func (g *Graph) InNeighbors(v int32) []int32 {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutDegree returns the number of successors of u.
func (g *Graph) OutDegree(u int32) int32 {
	return int32(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v int32) int32 {
	return int32(g.inOff[v+1] - g.inOff[v])
}

// HasEdge reports whether the directed edge (u,v) exists. O(log outdeg(u)).
func (g *Graph) HasEdge(u, v int32) bool {
	adj := g.OutNeighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Edges calls fn for every directed edge (u,v) in node order. If fn returns
// false, iteration stops.
func (g *Graph) Edges(fn func(u, v int32) bool) {
	for u := int32(0); u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if !fn(u, v) {
				return
			}
		}
	}
}

// Builder accumulates directed edges and produces an immutable Graph.
// Duplicate edges and self-loops are dropped at Build time. The zero value
// is not usable; construct with NewBuilder.
type Builder struct {
	n     int32
	edges []edge
}

type edge struct{ u, v int32 }

// NewBuilder returns a builder for a graph with n nodes. n may be zero; it
// grows automatically if AddEdge sees a larger endpoint.
func NewBuilder(n int32) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// AddEdge records the directed edge (u,v). Negative endpoints are rejected,
// as is math.MaxInt32 (the universe size id+1 must itself fit in an int32).
// Self-loops are silently ignored (the paper's influence semantics have no
// use for them).
func (b *Builder) AddEdge(u, v int32) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node id in edge (%d,%d)", u, v)
	}
	if u == math.MaxInt32 || v == math.MaxInt32 {
		return fmt.Errorf("graph: node id %d overflows the universe size", math.MaxInt32)
	}
	if u == v {
		return nil
	}
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	b.edges = append(b.edges, edge{u, v})
	return nil
}

// NumPendingEdges returns the number of edges added so far, before
// deduplication.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// NumNodes returns the universe size the builder has grown to so far.
func (b *Builder) NumNodes() int32 { return b.n }

// Build produces the immutable Graph. The builder may be reused afterwards,
// but edges added so far remain.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	// Deduplicate in place over a copy of the slice header.
	dedup := b.edges[:0:0]
	var last edge = edge{-1, -1}
	for _, e := range b.edges {
		if e != last {
			dedup = append(dedup, e)
			last = e
		}
	}

	g := &Graph{n: b.n}
	g.outOff = make([]int64, b.n+1)
	g.inOff = make([]int64, b.n+1)
	g.outAdj = make([]int32, len(dedup))
	g.inAdj = make([]int32, len(dedup))

	for _, e := range dedup {
		g.outOff[e.u+1]++
		g.inOff[e.v+1]++
	}
	for i := int32(0); i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	outPos := make([]int64, b.n)
	inPos := make([]int64, b.n)
	copy(outPos, g.outOff[:b.n])
	copy(inPos, g.inOff[:b.n])
	for _, e := range dedup {
		g.outAdj[outPos[e.u]] = e.v
		outPos[e.u]++
		g.inAdj[inPos[e.v]] = e.u
		inPos[e.v]++
	}
	// outAdj ranges are already sorted by the global edge sort; inAdj ranges
	// are filled in (u-major) order, which is sorted per target too.
	return g
}

// FromEdges is a convenience constructor over an explicit edge list.
func FromEdges(n int32, edges [][2]int32) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
