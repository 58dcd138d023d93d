package infmax

import (
	"context"
	"sort"
	"testing"
	"time"

	"inf2vec/internal/benchgate"
	"inf2vec/internal/graph"
)

// benchGraph builds a deterministic sparse digraph: every node points at a
// fixed set of offsets, giving a 5-regular expander-ish topology with no
// RNG involved.
func benchGraph(tb testing.TB, n int32) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		for _, off := range []int32{1, 7, 31, 101, 501} {
			if err := b.AddEdge(u, (u+off)%n); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return b.Build()
}

// TestRecordInfmaxBench measures the seed-selection hot path — Monte-Carlo
// spread evaluations per second, and end-to-end selection latency quantiles
// at a fixed evaluation budget (the shape a /v1/seeds deployment cares
// about) — and, when INF2VEC_WRITE_BENCH is set, records them in
// BENCH_infmax.json at the repository root.
func TestRecordInfmaxBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench recording skipped in -short mode")
	}
	const (
		nodes   = 3000
		k       = 10
		mcRuns  = 50
		poolLen = 100
		budget  = 150
		runs    = 20
	)
	g := benchGraph(t, nodes)
	probs := constProber{g, 0.05}
	pool := make([]int32, poolLen)
	for i := range pool {
		pool[i] = int32(i)
	}

	// Throughput: one uninterrupted selection, evaluations over wall clock.
	full := Config{Seeds: k, MonteCarloRuns: mcRuns, Seed: 1, Candidates: pool}
	start := time.Now()
	res, err := Greedy(context.Background(), g, probs, full)
	if err != nil {
		t.Fatal(err)
	}
	fullElapsed := time.Since(start)
	if res.Partial || len(res.Seeds) != k {
		t.Fatalf("uninterrupted bench run degraded: %+v", res)
	}

	// Latency distribution: repeated budget-bounded selections, each with
	// its own RNG stream, as a fleet of deadline-conscious clients would
	// issue them.
	lat := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		cfg := full
		cfg.Seed = uint64(100 + i)
		cfg.MaxEvaluations = budget
		begin := time.Now()
		r, err := Greedy(context.Background(), g, probs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(begin))
		if r.Evaluations > budget {
			t.Fatalf("run %d spent %d evaluations over budget %d", i, r.Evaluations, budget)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(lat)-1))
		return lat[idx].Seconds()
	}

	report := map[string]any{
		"benchmark":              "infmax_celf",
		"graph_nodes":            nodes,
		"graph_edges":            g.NumEdges(),
		"candidates":             poolLen,
		"seeds_k":                k,
		"mc_runs":                mcRuns,
		"full_evaluations":       res.Evaluations,
		"evaluations_per_second": float64(res.Evaluations) / fullElapsed.Seconds(),
		"full_run_seconds":       fullElapsed.Seconds(),
		"budget":                 budget,
		"budgeted_runs":          runs,
		"seeds_p50_s":            quantile(0.50),
		"seeds_p99_s":            quantile(0.99),
		"go_test_generated_by":   "internal/infmax.TestRecordInfmaxBench (INF2VEC_WRITE_BENCH=1)",
	}
	benchgate.Record(t, "BENCH_infmax.json", report)
}
