package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"inf2vec/internal/graph"
	"inf2vec/internal/ic"
	"inf2vec/internal/infmax"
	"inf2vec/internal/rng"
)

// SeedsRow is one point of the anytime-CELF degradation curve: the seed
// prefix selected within a given fraction of the full run's evaluation
// budget, judged against the planted ground-truth diffusion probabilities.
type SeedsRow struct {
	Dataset string
	// BudgetPct is the evaluation budget as a percentage of what the
	// uninterrupted run spends (100 = no budget).
	BudgetPct int
	// Budget is the concrete MaxEvaluations bound (0 = unlimited).
	Budget int
	// Seeds is how many of the k requested seeds were selected in budget.
	Seeds int
	// Evaluations actually spent.
	Evaluations int
	// Stopped is the infmax stop reason ("" for the complete run).
	Stopped string
	// TrueSpread is the expected cascade of the selected prefix under the
	// hidden ground-truth edge probabilities.
	TrueSpread float64
}

// SeedsAnytime demonstrates the serving story behind /v1/seeds: CELF over
// the learned Inf2vec influence model is interrupted at shrinking evaluation
// budgets, and every interruption still yields a valid prefix of the full
// selection whose ground-truth spread degrades gracefully rather than
// collapsing. The 100% row is the uninterrupted baseline.
func (s *Suite) SeedsAnytime() ([]SeedsRow, error) {
	const name = "digg-like"
	ds, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	m, err := s.Models(name)
	if err != nil {
		return nil, err
	}
	model := m.inf[0]

	k, mcRuns, pool := 10, 100, 50
	if s.opts.reduced() {
		k, mcRuns, pool = 5, 50, 25
	}
	prober := &infmax.ModelProber{
		G:      ds.Graph,
		Score:  model.Score,
		Offset: -4, // conservative link: only strong learned ties propagate
	}
	candidates := topOutDegree(ds.Graph, pool)
	cfg := infmax.Config{
		Seeds:          k,
		MonteCarloRuns: mcRuns,
		Seed:           s.opts.Seed + 80,
		Candidates:     candidates,
	}

	full, err := infmax.Greedy(s.context(), ds.Graph, prober, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: seeds full run: %w", err)
	}
	if full.Partial {
		// The suite context was canceled mid-run; surface it as the usual
		// interrupt instead of judging a truncated baseline.
		return nil, s.context().Err()
	}

	rows := make([]SeedsRow, 0, 5)
	judge := func(budget, pct int, res *infmax.Result) error {
		// Ground truth the learners never saw judges the prefix.
		r := rng.New(s.opts.Seed + 81)
		spread := 0.0
		if len(res.Seeds) > 0 {
			spread, err = ic.ExpectedSpread(context.Background(), ds.TrueProbs, res.Seeds, 2*mcRuns, r)
			if err != nil {
				return err
			}
		}
		rows = append(rows, SeedsRow{
			Dataset: name, BudgetPct: pct, Budget: budget,
			Seeds: len(res.Seeds), Evaluations: res.Evaluations,
			Stopped: res.Stopped, TrueSpread: spread,
		})
		return nil
	}
	// CELF's initial pass costs one evaluation per candidate, so the low
	// percentages land inside it (empty-but-valid prefix) and the high ones
	// show the prefix growing toward the full selection.
	for _, pct := range []int{25, 50, 75, 90} {
		budgeted := cfg
		budgeted.MaxEvaluations = max(1, full.Evaluations*pct/100)
		res, err := infmax.Greedy(s.context(), ds.Graph, prober, budgeted)
		if err != nil {
			return nil, fmt.Errorf("experiments: seeds %d%% run: %w", pct, err)
		}
		if err := judge(budgeted.MaxEvaluations, pct, res); err != nil {
			return nil, err
		}
	}
	if err := judge(0, 100, full); err != nil {
		return nil, err
	}
	return rows, nil
}

// topOutDegree shortlists the n highest out-degree nodes (ties: lowest ID).
func topOutDegree(g *graph.Graph, n int) []int32 {
	ids := make([]int32, g.NumNodes())
	for u := range ids {
		ids[u] = int32(u)
	}
	sort.Slice(ids, func(i, j int) bool {
		if da, db := g.OutDegree(ids[i]), g.OutDegree(ids[j]); da != db {
			return da > db
		}
		return ids[i] < ids[j]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// RenderSeedsAnytime prints the degradation curve in the repo's table shape.
func RenderSeedsAnytime(w io.Writer, rows []SeedsRow) error {
	headers := []string{"Dataset", "Budget", "Evals", "Seeds", "Stopped", "True spread"}
	var grid [][]string
	for _, r := range rows {
		budget := "unlimited"
		if r.Budget > 0 {
			budget = fmt.Sprintf("%d%% (%d)", r.BudgetPct, r.Budget)
		}
		stopped := r.Stopped
		if stopped == "" {
			stopped = "-"
		}
		grid = append(grid, []string{
			r.Dataset, budget, fmt.Sprintf("%d", r.Evaluations),
			fmt.Sprintf("%d", r.Seeds), stopped, fmt.Sprintf("%.1f", r.TrueSpread),
		})
	}
	return renderGrid(w, "Anytime CELF: seed quality under evaluation budgets", headers, grid)
}
