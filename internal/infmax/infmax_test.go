package infmax

import (
	"context"
	"math"
	"testing"
	"time"

	"inf2vec/internal/graph"
)

// starProber gives probability 1 on every edge.
type starProber struct{ g *graph.Graph }

func (p starProber) Prob(u, v int32) float64 {
	if p.g.HasEdge(u, v) {
		return 1
	}
	return 0
}

// constProber gives a fixed probability on every edge, making spread
// estimates genuinely Monte-Carlo (RNG-dependent).
type constProber struct {
	g *graph.Graph
	p float64
}

func (p constProber) Prob(u, v int32) float64 {
	if p.g.HasEdge(u, v) {
		return p.p
	}
	return 0
}

// twoStars builds hubs 0 (5 leaves) and 6 (3 leaves), plus isolated node 10.
func twoStars(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(11)
	for leaf := int32(1); leaf <= 5; leaf++ {
		if err := b.AddEdge(0, leaf); err != nil {
			t.Fatal(err)
		}
	}
	for leaf := int32(7); leaf <= 9; leaf++ {
		if err := b.AddEdge(6, leaf); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestGreedyPicksHubsInOrder(t *testing.T) {
	g := twoStars(t)
	res, err := Greedy(context.Background(), g, starProber{g}, Config{Seeds: 2, MonteCarloRuns: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	if res.Seeds[0] != 0 || res.Seeds[1] != 6 {
		t.Fatalf("seeds = %v, want [0 6] (largest hubs first)", res.Seeds)
	}
	// Deterministic spreads: {0} covers 6 nodes, adding 6 covers 10.
	if math.Abs(res.Spread[0]-6) > 1e-9 || math.Abs(res.Spread[1]-10) > 1e-9 {
		t.Fatalf("spread trajectory = %v, want [6 10]", res.Spread)
	}
	if res.Partial || res.Stopped != "" {
		t.Fatalf("uninterrupted run flagged partial: %+v", res)
	}
}

func TestGreedySpreadMonotone(t *testing.T) {
	g := twoStars(t)
	res, err := Greedy(context.Background(), g, starProber{g}, Config{Seeds: 4, MonteCarloRuns: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Spread); i++ {
		if res.Spread[i] < res.Spread[i-1]-1e-9 {
			t.Fatalf("spread not monotone: %v", res.Spread)
		}
	}
}

func TestGreedyCandidateRestriction(t *testing.T) {
	g := twoStars(t)
	res, err := Greedy(context.Background(), g, starProber{g}, Config{
		Seeds: 1, MonteCarloRuns: 20, Seed: 3, Candidates: []int32{6, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 6 {
		t.Fatalf("restricted greedy picked %d, want 6", res.Seeds[0])
	}
}

func TestGreedyCELFPrunes(t *testing.T) {
	g := twoStars(t)
	res, err := Greedy(context.Background(), g, starProber{g}, Config{Seeds: 3, MonteCarloRuns: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Naive greedy would need ~11 + 10 + 9 = 30 evaluations; CELF must do
	// meaningfully fewer than the naive count after the initial pass.
	if res.Evaluations >= 30 {
		t.Fatalf("evaluations = %d, CELF should prune below naive 30", res.Evaluations)
	}
}

func TestGreedyValidation(t *testing.T) {
	g := twoStars(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero budget", Config{Seeds: 0}},
		{"budget above candidates", Config{Seeds: 5, Candidates: []int32{1}}},
		{"negative MC runs", Config{Seeds: 1, MonteCarloRuns: -1}},
		{"negative eval budget", Config{Seeds: 1, MaxEvaluations: -1}},
		{"candidate above range", Config{Seeds: 1, Candidates: []int32{11}}},
		{"negative candidate", Config{Seeds: 1, Candidates: []int32{-1}}},
		{"duplicate candidates", Config{Seeds: 1, Candidates: []int32{3, 4, 3}}},
	}
	for _, c := range cases {
		if _, err := Greedy(context.Background(), g, starProber{g}, c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// run is a test helper for an uninterrupted reference selection.
func run(t *testing.T, g *graph.Graph, cfg Config) *Result {
	t.Helper()
	res, err := Greedy(context.Background(), g, constProber{g, 0.3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGreedyInvariants pins the satellite contract: non-decreasing spread
// trajectory, the evaluation-count upper bound, and bitwise-deterministic
// results for a fixed seed.
func TestGreedyInvariants(t *testing.T) {
	g := twoStars(t)
	cfg := Config{Seeds: 4, MonteCarloRuns: 30, Seed: 9}
	res := run(t, g, cfg)

	if len(res.Seeds) != cfg.Seeds || len(res.Spread) != cfg.Seeds {
		t.Fatalf("selected %d seeds / %d spreads, want %d", len(res.Seeds), len(res.Spread), cfg.Seeds)
	}
	for i := 1; i < len(res.Spread); i++ {
		if res.Spread[i] < res.Spread[i-1] {
			t.Errorf("spread trajectory decreases at %d: %v", i, res.Spread)
		}
	}
	if bound := cfg.Seeds * int(g.NumNodes()); res.Evaluations > bound {
		t.Errorf("evaluations = %d above k·|candidates| = %d", res.Evaluations, bound)
	}

	again := run(t, g, cfg)
	if again.Evaluations != res.Evaluations {
		t.Fatalf("evaluations differ across identical runs: %d vs %d", again.Evaluations, res.Evaluations)
	}
	for i := range res.Seeds {
		if again.Seeds[i] != res.Seeds[i] {
			t.Fatalf("seeds differ across identical runs: %v vs %v", again.Seeds, res.Seeds)
		}
		if math.Float64bits(again.Spread[i]) != math.Float64bits(res.Spread[i]) {
			t.Fatalf("spread not bitwise deterministic at %d: %x vs %x",
				i, math.Float64bits(again.Spread[i]), math.Float64bits(res.Spread[i]))
		}
	}
}

// requirePrefix asserts that partial is an exact (bitwise) prefix of full.
func requirePrefix(t *testing.T, partial, full *Result) {
	t.Helper()
	if len(partial.Seeds) > len(full.Seeds) {
		t.Fatalf("partial selected %d seeds, full run only %d", len(partial.Seeds), len(full.Seeds))
	}
	for i := range partial.Seeds {
		if partial.Seeds[i] != full.Seeds[i] {
			t.Fatalf("partial seeds %v not a prefix of full %v", partial.Seeds, full.Seeds)
		}
		if math.Float64bits(partial.Spread[i]) != math.Float64bits(full.Spread[i]) {
			t.Fatalf("partial spread %v not a bitwise prefix of full %v", partial.Spread, full.Spread)
		}
	}
}

// TestFaultBudgetExhaustionYieldsExactPrefix sweeps the evaluation budget
// from 1 to the uninterrupted run's count: every budgeted run must return a
// valid flagged prefix of the uninterrupted selection, within budget.
func TestFaultBudgetExhaustionYieldsExactPrefix(t *testing.T) {
	g := twoStars(t)
	cfg := Config{Seeds: 3, MonteCarloRuns: 25, Seed: 11}
	full := run(t, g, cfg)

	for budget := 1; budget <= full.Evaluations; budget++ {
		bcfg := cfg
		bcfg.MaxEvaluations = budget
		res := run(t, g, bcfg)
		if res.Evaluations > budget {
			t.Fatalf("budget %d: spent %d evaluations", budget, res.Evaluations)
		}
		if budget < full.Evaluations {
			if !res.Partial || res.Stopped != StopBudget {
				t.Fatalf("budget %d: partial=%v stopped=%q, want budget stop", budget, res.Partial, res.Stopped)
			}
		} else if res.Partial {
			t.Fatalf("budget %d covers the full run but was flagged partial", budget)
		}
		requirePrefix(t, res, full)
	}
}

// TestFaultCancelAtEvaluationN drives the cancel-at-evaluation hook: a
// context canceled at every possible evaluation index must yield a flagged
// valid prefix, never an error or a hang.
func TestFaultCancelAtEvaluationN(t *testing.T) {
	g := twoStars(t)
	cfg := Config{Seeds: 3, MonteCarloRuns: 25, Seed: 13}
	full := run(t, g, cfg)

	for n := 0; n < full.Evaluations; n++ {
		ctx, cancel := context.WithCancel(context.Background())
		ccfg := cfg
		ccfg.Hooks.BeforeEval = func(eval int, seeds []int32) error {
			if eval == n {
				cancel()
			}
			return nil
		}
		res, err := Greedy(ctx, g, constProber{g, 0.3}, ccfg)
		cancel()
		if err != nil {
			t.Fatalf("cancel at eval %d: %v", n, err)
		}
		if !res.Partial || res.Stopped != StopCanceled {
			t.Fatalf("cancel at eval %d: partial=%v stopped=%q", n, res.Partial, res.Stopped)
		}
		requirePrefix(t, res, full)
	}
}

// TestOnSelectHookObservesEverySelection asserts OnSelect fires once per
// chosen seed, in selection order, with the cumulative spread and evaluation
// count at that moment — and that it is pure observation: the result is
// identical to a run without the hook.
func TestOnSelectHookObservesEverySelection(t *testing.T) {
	g := twoStars(t)
	cfg := Config{Seeds: 3, MonteCarloRuns: 25, Seed: 29}
	plain := run(t, g, cfg)

	type selection struct {
		seed  int32
		total float64
		evals int
	}
	var selections []selection
	hcfg := cfg
	hcfg.Hooks.OnSelect = func(seed int32, spread float64, evaluations int) {
		selections = append(selections, selection{seed, spread, evaluations})
	}
	res := run(t, g, hcfg)

	if len(selections) != len(res.Seeds) {
		t.Fatalf("OnSelect fired %d times for %d seeds", len(selections), len(res.Seeds))
	}
	for i, sel := range selections {
		if sel.seed != res.Seeds[i] {
			t.Fatalf("selection %d: hook saw seed %d, result has %d", i, sel.seed, res.Seeds[i])
		}
		if sel.total != res.Spread[i] {
			t.Fatalf("selection %d: hook saw spread %v, result has %v", i, sel.total, res.Spread[i])
		}
		if sel.evals <= 0 || sel.evals > res.Evaluations {
			t.Fatalf("selection %d: implausible evaluation count %d (total %d)", i, sel.evals, res.Evaluations)
		}
	}
	for i := 1; i < len(selections); i++ {
		if selections[i].evals < selections[i-1].evals {
			t.Fatalf("evaluation counts not monotone: %v", selections)
		}
	}
	if len(res.Seeds) != len(plain.Seeds) {
		t.Fatalf("hook changed the selection: %v vs %v", res.Seeds, plain.Seeds)
	}
	for i := range res.Seeds {
		if res.Seeds[i] != plain.Seeds[i] || res.Spread[i] != plain.Spread[i] {
			t.Fatalf("hook changed the selection: %v/%v vs %v/%v", res.Seeds, res.Spread, plain.Seeds, plain.Spread)
		}
	}
}

// TestFaultOracleFailureAtEvaluationN injects an oracle failure at every
// evaluation index; each run must degrade to a flagged valid prefix.
func TestFaultOracleFailureAtEvaluationN(t *testing.T) {
	g := twoStars(t)
	cfg := Config{Seeds: 3, MonteCarloRuns: 25, Seed: 17}
	full := run(t, g, cfg)

	for n := 0; n < full.Evaluations; n++ {
		fcfg := cfg
		fcfg.Hooks.BeforeEval = func(eval int, seeds []int32) error {
			if eval == n {
				return context.Canceled // any error: the oracle broke
			}
			return nil
		}
		res, err := Greedy(context.Background(), g, constProber{g, 0.3}, fcfg)
		if err != nil {
			t.Fatalf("oracle failure at eval %d: %v", n, err)
		}
		if !res.Partial || res.Stopped != StopOracle {
			t.Fatalf("oracle failure at eval %d: partial=%v stopped=%q", n, res.Partial, res.Stopped)
		}
		if res.Evaluations != n {
			t.Fatalf("oracle failure at eval %d: %d evaluations completed", n, res.Evaluations)
		}
		requirePrefix(t, res, full)
	}
}

// TestFaultDeadlineMidCELF expires the context deadline mid-selection (via a
// hook that outsleeps it) and requires a flagged valid prefix.
func TestFaultDeadlineMidCELF(t *testing.T) {
	g := twoStars(t)
	cfg := Config{Seeds: 3, MonteCarloRuns: 25, Seed: 19}
	full := run(t, g, cfg)

	stallAt := full.Evaluations / 2
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	dcfg := cfg
	dcfg.Hooks.BeforeEval = func(eval int, seeds []int32) error {
		if eval == stallAt {
			<-ctx.Done() // the oracle stalls until the deadline passes
		}
		return nil
	}
	res, err := Greedy(ctx, g, constProber{g, 0.3}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Stopped != StopDeadline {
		t.Fatalf("partial=%v stopped=%q, want deadline stop", res.Partial, res.Stopped)
	}
	requirePrefix(t, res, full)
}

func TestModelProber(t *testing.T) {
	g := twoStars(t)
	p := &ModelProber{
		G:     g,
		Score: func(u, v int32) float64 { return 100 },
	}
	if got := p.Prob(0, 1); got < 0.99 {
		t.Errorf("high-score edge prob = %v, want ~1", got)
	}
	if got := p.Prob(1, 0); got != 0 {
		t.Errorf("non-edge prob = %v, want 0", got)
	}
	p.Score = func(u, v int32) float64 { return -100 }
	if got := p.Prob(0, 1); got > 0.01 {
		t.Errorf("low-score edge prob = %v, want ~0", got)
	}
	// Offset shifts the operating point.
	p.Score = func(u, v int32) float64 { return 0 }
	p.Offset = 0
	if got := p.Prob(0, 1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("zero-score prob = %v, want 0.5", got)
	}
}
