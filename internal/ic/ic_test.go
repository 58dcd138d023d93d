package ic

import (
	"context"
	"math"
	"sync"
	"testing"

	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// constProber returns the same probability for every real edge.
type constProber struct {
	g *graph.Graph
	p float64
}

func (c constProber) Prob(u, v int32) float64 {
	if c.g.HasEdge(u, v) {
		return c.p
	}
	return 0
}

func mustGraph(t *testing.T, n int32, edges [][2]int32) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tab tabulates p over g for the table-driven simulators.
func tab(t *testing.T, g *graph.Graph, p EdgeProber) *EdgeProbs {
	t.Helper()
	e, err := Tabulate(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// simulateIC runs one cascade over p, the realization MonteCarlo and
// ExpectedSpread average, and returns its activation mask.
func simulateIC(p *EdgeProbs, seeds []int32, r *rng.RNG) []bool {
	active := make([]bool, p.g.NumNodes())
	p.cascade(seeds, r, active, nil)
	return active
}

func TestActivationProb(t *testing.T) {
	g := mustGraph(t, 3, [][2]int32{{0, 2}, {1, 2}})
	p := constProber{g: g, p: 0.5}
	got := ActivationProb(p, []int32{0, 1}, 2)
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ActivationProb = %v, want 0.75", got)
	}
	if got := ActivationProb(p, nil, 2); got != 0 {
		t.Fatalf("no active friends: prob = %v, want 0", got)
	}
	// Non-edges contribute nothing.
	if got := ActivationProb(p, []int32{2}, 0); got != 0 {
		t.Fatalf("non-edge activation prob = %v, want 0", got)
	}
}

func TestSimulateICDeterministicExtremes(t *testing.T) {
	g := mustGraph(t, 4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	r := rng.New(1)
	all := simulateIC(tab(t, g, constProber{g, 1}), []int32{0}, r)
	for v, a := range all {
		if !a {
			t.Fatalf("prob-1 chain: node %d inactive", v)
		}
	}
	none := simulateIC(tab(t, g, constProber{g, 0}), []int32{0}, r)
	if !none[0] || none[1] || none[2] || none[3] {
		t.Fatalf("prob-0 chain: mask = %v", none)
	}
}

func TestSimulateICSeedsSanitized(t *testing.T) {
	g := mustGraph(t, 3, nil)
	mask := simulateIC(tab(t, g, constProber{g, 1}), []int32{-4, 1, 1, 99}, rng.New(2))
	if mask[0] || !mask[1] || mask[2] {
		t.Fatalf("mask = %v, want only node 1", mask)
	}
}

func TestSimulateICSingleChance(t *testing.T) {
	// One edge with p=0.5: over many runs, activation frequency must be
	// ~0.5, demonstrating each activator gets exactly one try.
	g := mustGraph(t, 2, [][2]int32{{0, 1}})
	p := tab(t, g, constProber{g, 0.5})
	r := rng.New(3)
	hits := 0
	const runs = 20000
	for i := 0; i < runs; i++ {
		if simulateIC(p, []int32{0}, r)[1] {
			hits++
		}
	}
	freq := float64(hits) / runs
	if math.Abs(freq-0.5) > 0.02 {
		t.Fatalf("single-chance frequency = %v, want ~0.5", freq)
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	// Diamond 0->{1,2}->3 with p=0.5 everywhere:
	// P(1)=P(2)=0.5; P(3) = E[1-(1-0.5)^A] with A = active parents.
	// P(3) = P(1 parent)·0.5 + P(2 parents)·0.75 = 2·0.25·0.5 + 0.25·0.75.
	g := mustGraph(t, 4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	probs, err := MonteCarlo(context.Background(), tab(t, g, constProber{g, 0.5}), []int32{0}, 40000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if probs[0] != 1 {
		t.Fatalf("seed probability = %v, want 1", probs[0])
	}
	want3 := 2*0.25*0.5 + 0.25*0.75
	if math.Abs(probs[1]-0.5) > 0.01 || math.Abs(probs[2]-0.5) > 0.01 {
		t.Fatalf("first-hop probs = %v/%v, want 0.5", probs[1], probs[2])
	}
	if math.Abs(probs[3]-want3) > 0.01 {
		t.Fatalf("P(3) = %v, want %v", probs[3], want3)
	}
}

func TestMonteCarloRejectsBadRuns(t *testing.T) {
	g := mustGraph(t, 2, [][2]int32{{0, 1}})
	if _, err := MonteCarlo(context.Background(), tab(t, g, constProber{g, 1}), []int32{0}, 0, rng.New(5)); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

func TestExpectedSpread(t *testing.T) {
	g := mustGraph(t, 3, [][2]int32{{0, 1}, {1, 2}})
	spread, err := ExpectedSpread(context.Background(), tab(t, g, constProber{g, 1}), []int32{0}, 10, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if spread != 3 {
		t.Fatalf("spread = %v, want 3", spread)
	}
}

func TestEdgeProbsSetAndGet(t *testing.T) {
	g := mustGraph(t, 4, [][2]int32{{0, 1}, {0, 3}, {2, 1}})
	ep := NewEdgeProbs(g)
	if err := ep.Set(0, 3, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := ep.Set(2, 1, 0.2); err != nil {
		t.Fatal(err)
	}
	if got := ep.Prob(0, 3); got != 0.7 {
		t.Fatalf("Prob(0,3) = %v, want 0.7", got)
	}
	if got := ep.Prob(2, 1); got != 0.2 {
		t.Fatalf("Prob(2,1) = %v, want 0.2", got)
	}
	if got := ep.Prob(0, 1); got != 0 {
		t.Fatalf("unset edge prob = %v, want 0", got)
	}
	if got := ep.Prob(3, 0); got != 0 {
		t.Fatalf("non-edge prob = %v, want 0", got)
	}
}

func TestEdgeProbsValidation(t *testing.T) {
	g := mustGraph(t, 2, [][2]int32{{0, 1}})
	ep := NewEdgeProbs(g)
	if err := ep.Set(1, 0, 0.5); err == nil {
		t.Error("non-edge Set accepted")
	}
	if err := ep.Set(0, 1, -0.1); err == nil {
		t.Error("negative probability accepted")
	}
	if err := ep.Set(0, 1, 1.5); err == nil {
		t.Error("probability > 1 accepted")
	}
	if err := ep.Set(0, 1, math.NaN()); err == nil {
		t.Error("NaN probability accepted")
	}
}

func TestMonteCarloCancellationBetweenRuns(t *testing.T) {
	g := mustGraph(t, 3, [][2]int32{{0, 1}, {1, 2}})
	p := tab(t, g, constProber{g, 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MonteCarlo(ctx, p, []int32{0}, 10, rng.New(7)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := ExpectedSpread(ctx, p, []int32{0}, 10, rng.New(8)); err != context.Canceled {
		t.Fatalf("spread err = %v, want context.Canceled", err)
	}
}

// refSimulateIC is the per-trial cascade loop the table replaced: every
// trial asks the prober. It stays here as the bitwise reference the
// table-driven simulators are checked against.
func refSimulateIC(g *graph.Graph, p EdgeProber, seeds []int32, r *rng.RNG) []bool {
	active := make([]bool, g.NumNodes())
	frontier := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if s >= 0 && s < g.NumNodes() && !active[s] {
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
				if r.Float64() < p.Prob(u, v) {
					active[v] = true
					next = append(next, v)
				}
			}
		}
		frontier, next = next, frontier
	}
	return active
}

// refMonteCarlo is MonteCarlo over refSimulateIC.
func refMonteCarlo(ctx context.Context, g *graph.Graph, p EdgeProber, seeds []int32, runs int, r *rng.RNG) ([]float64, error) {
	counts := make([]int64, g.NumNodes())
	for i := 0; i < runs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for v, a := range refSimulateIC(g, p, seeds, r) {
			if a {
				counts[v]++
			}
		}
	}
	probs := make([]float64, g.NumNodes())
	for v := range probs {
		probs[v] = float64(counts[v]) / float64(runs)
	}
	return probs, nil
}

// proberFunc adapts a function to EdgeProber.
type proberFunc func(u, v int32) float64

func (f proberFunc) Prob(u, v int32) float64 { return f(u, v) }

// mixedProber answers a fixed pseudo-random probability per edge — 0, 1,
// NaN or uniform in [0, 0.5) — as a pure function of (u, v).
func mixedProber(g *graph.Graph, seed uint64) EdgeProber {
	return proberFunc(func(u, v int32) float64 {
		if !g.HasEdge(u, v) {
			return 0
		}
		r := rng.Keyed(seed, uint64(u)<<32|uint64(v))
		switch r.Intn(10) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return math.NaN()
		default:
			return 0.5 * r.Float64()
		}
	})
}

// randomProbGraph builds an n-node digraph with isolated nodes (every
// ninth), three hubs pointing at ~70% of the rest, and sparse random edges.
func randomProbGraph(t *testing.T, n int32, seed uint64) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	isolated := func(u int32) bool { return u%9 == 8 }
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		if isolated(u) {
			continue
		}
		for v := int32(0); v < n; v++ {
			hubEdge := u < 3 && r.Float64() < 0.7
			if !isolated(v) && u != v && (hubEdge || r.Float64() < 2/float64(n)) {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, reference %d", what, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: node %d = %v, reference %v", what, v, got[v], want[v])
		}
	}
}

func requireSameState(t *testing.T, what string, got, want *rng.RNG) {
	t.Helper()
	if got.State() != want.State() {
		t.Fatalf("%s: RNG state diverged from the reference", what)
	}
}

// TestTableMatchesPerTrialReference checks the cascade, MonteCarlo and
// ExpectedSpread over a table against the per-trial loop, bit for bit and
// draw for draw, on graphs with isolated nodes and hubs, probabilities 0, 1
// and NaN, and seed sets with negative, duplicate and out-of-range IDs.
func TestTableMatchesPerTrialReference(t *testing.T) {
	ctx := context.Background()
	for i, n := range []int32{40, 80, 200} {
		gseed := uint64(i + 1)
		g := randomProbGraph(t, n, gseed)
		p := mixedProber(g, gseed)
		table := tab(t, g, p)
		ref, got := rng.New(gseed), rng.New(gseed)
		for _, seeds := range [][]int32{{}, {0}, {-3, 5, 5, n + 7, 12}, {1, 8}, {n - 1, 0, -1, n, 0}} {
			for _, runs := range []int{1, 7, 50} {
				want, err := refMonteCarlo(ctx, g, p, seeds, runs, ref)
				if err != nil {
					t.Fatal(err)
				}
				have, err := MonteCarlo(ctx, table, seeds, runs, got)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, "MonteCarlo", have, want)
				requireSameState(t, "MonteCarlo", got, ref)
			}

			wantMask := refSimulateIC(g, p, seeds, ref)
			haveMask := simulateIC(table, seeds, got)
			for v := range wantMask {
				if haveMask[v] != wantMask[v] {
					t.Fatalf("cascade: node %d active=%v, reference %v", v, haveMask[v], wantMask[v])
				}
			}
			requireSameState(t, "cascade", got, ref)

			probs, err := refMonteCarlo(ctx, g, p, seeds, 30, ref)
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			for _, pr := range probs {
				want += pr
			}
			have, err := ExpectedSpread(ctx, table, seeds, 30, got)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "ExpectedSpread", []float64{have}, []float64{want})
			requireSameState(t, "ExpectedSpread", got, ref)
		}
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on, so a Monte-Carlo call stops before the same run in both
// implementations.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestCanceledMonteCarloLeavesNextCallIdentical cancels a call after every
// possible number of runs: the RNG must stand where the reference's does,
// and the next call must match the reference's bit for bit.
func TestCanceledMonteCarloLeavesNextCallIdentical(t *testing.T) {
	g := randomProbGraph(t, 120, 9)
	p := mixedProber(g, 9)
	table := tab(t, g, p)
	seeds := []int32{0, 1, 5}
	const runs = 10
	for stopAt := 0; stopAt < runs; stopAt++ {
		ref, got := rng.New(uint64(stopAt)), rng.New(uint64(stopAt))
		if _, err := refMonteCarlo(&cancelAfter{context.Background(), stopAt}, g, p, seeds, runs, ref); err != context.Canceled {
			t.Fatalf("reference err = %v, want context.Canceled", err)
		}
		if _, err := MonteCarlo(&cancelAfter{context.Background(), stopAt}, table, seeds, runs, got); err != context.Canceled {
			t.Fatalf("stop at run %d: err = %v, want context.Canceled", stopAt, err)
		}
		requireSameState(t, "canceled call", got, ref)
		want, err := refMonteCarlo(context.Background(), g, p, seeds, runs, ref)
		if err != nil {
			t.Fatal(err)
		}
		have, err := MonteCarlo(context.Background(), table, seeds, runs, got)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "call after cancellation", have, want)
		requireSameState(t, "call after cancellation", got, ref)
	}
}

// TestSharedTableConcurrentMonteCarlo runs several goroutines over one
// table, each with its own RNG; each must match its sequential reference.
// CI runs it under -race.
func TestSharedTableConcurrentMonteCarlo(t *testing.T) {
	g := randomProbGraph(t, 150, 11)
	p := mixedProber(g, 11)
	table := tab(t, g, p)
	seeds := []int32{0, 2, 40}
	const workers, runs = 4, 200
	want := make([][]float64, workers)
	for w := range want {
		var err error
		if want[w], err = refMonteCarlo(context.Background(), g, p, seeds, runs, rng.New(uint64(100+w))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = MonteCarlo(context.Background(), table, seeds, runs, rng.New(uint64(100+w)))
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		requireSameBits(t, "concurrent MonteCarlo", got[w], want[w])
	}
}

// TestTabulateReadsEachEdgeOnceInCSROrder pins Tabulate's contract: one
// Prob call per edge, in CSR order, each answer stored as returned — out of
// range and NaN included.
func TestTabulateReadsEachEdgeOnceInCSROrder(t *testing.T) {
	g := randomProbGraph(t, 60, 3)
	answers := []float64{math.NaN(), 1.5, -0.25, 0.3}
	var calls [][2]int32
	e := tab(t, g, proberFunc(func(u, v int32) float64 {
		calls = append(calls, [2]int32{u, v})
		return answers[len(calls)%len(answers)]
	}))
	i := 0
	g.Edges(func(u, v int32) bool {
		if i >= len(calls) || calls[i] != [2]int32{u, v} {
			t.Fatalf("lookup %d: got %v, want edge (%d,%d) in CSR order", i, calls[i:min(i+1, len(calls))], u, v)
		}
		slot, _ := e.Index(u, v)
		if got, want := e.ProbAt(slot), answers[(i+1)%len(answers)]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("edge (%d,%d) stored %v, prober answered %v", u, v, got, want)
		}
		i++
		return true
	})
	if len(calls) != i {
		t.Fatalf("%d lookups for %d edges", len(calls), i)
	}
}

// TestTabulateChecksContextBetweenSourceNodes cancels during node 0's
// lookups: its row completes, and no later node is read.
func TestTabulateChecksContextBetweenSourceNodes(t *testing.T) {
	g := mustGraph(t, 4, [][2]int32{{0, 1}, {0, 2}, {2, 3}, {3, 0}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sources []int32
	e, err := Tabulate(ctx, g, proberFunc(func(u, v int32) float64 {
		sources = append(sources, u)
		cancel()
		return 0.5
	}))
	if err != context.Canceled || e != nil {
		t.Fatalf("Tabulate = %v, %v; want nil, context.Canceled", e, err)
	}
	if len(sources) != 2 || sources[0] != 0 || sources[1] != 0 {
		t.Fatalf("lookups from sources %v, want node 0's two edges only", sources)
	}
}
