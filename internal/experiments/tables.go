package experiments

import (
	"fmt"

	"inf2vec/internal/citation"
	"inf2vec/internal/core"
	"inf2vec/internal/eval"
	"inf2vec/internal/stats"
)

// MethodResult is one row of Tables II/III: a method's five metrics, plus —
// for Inf2vec, whose training is randomized — the standard deviation across
// the suite's independent runs.
type MethodResult struct {
	Method  string
	Metrics eval.Metrics
	// StdDev is meaningful only when Runs > 1.
	StdDev eval.Metrics
	Runs   int
}

// DatasetResults groups one dataset's rows.
type DatasetResults struct {
	Dataset string
	Rows    []MethodResult
}

// TableIRow is one row of Table I (dataset statistics).
type TableIRow struct {
	Dataset string
	Users   int32
	Edges   int64
	Items   int
	Actions int64
}

// TableI reproduces the dataset-statistics table.
func (s *Suite) TableI() ([]TableIRow, error) {
	var rows []TableIRow
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		st := ds.Log.ComputeStats()
		rows = append(rows, TableIRow{
			Dataset: name,
			Users:   ds.Graph.NumNodes(),
			Edges:   ds.Graph.NumEdges(),
			Items:   st.NumItems,
			Actions: st.NumActions,
		})
	}
	return rows, nil
}

// activationScorers returns the §V-B1 scorer of every method, in
// MethodNames order, for one dataset.
func (s *Suite) activationScorers(m *trainedModels) map[string][]eval.ScoreFunc {
	out := map[string][]eval.ScoreFunc{
		"DE":       {eval.ICActivationScorer(m.de)},
		"ST":       {eval.ICActivationScorer(m.st)},
		"EM":       {eval.ICActivationScorer(m.em)},
		"Emb-IC":   {eval.ICActivationScorer(m.embIC)},
		"MF":       {eval.LatentActivationScorer(m.mf, m.mfAgg)},
		"Node2vec": {eval.LatentActivationScorer(m.n2v, m.n2vAgg)},
	}
	var infRuns []eval.ScoreFunc
	for _, model := range m.inf {
		infRuns = append(infRuns, eval.LatentActivationScorer(model, m.infAgg))
	}
	out["Inf2vec"] = infRuns
	return out
}

// aggregateRuns averages per-run metrics and computes their stddev.
func aggregateRuns(method string, runs []eval.Metrics) MethodResult {
	pick := func(f func(eval.Metrics) float64) (mean, sd float64) {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = f(r)
		}
		return stats.Mean(vals), stats.StdDev(vals)
	}
	var res MethodResult
	res.Method = method
	res.Runs = len(runs)
	res.Metrics.Episodes = runs[0].Episodes
	res.Metrics.AUC, res.StdDev.AUC = pick(func(m eval.Metrics) float64 { return m.AUC })
	res.Metrics.MAP, res.StdDev.MAP = pick(func(m eval.Metrics) float64 { return m.MAP })
	res.Metrics.P10, res.StdDev.P10 = pick(func(m eval.Metrics) float64 { return m.P10 })
	res.Metrics.P50, res.StdDev.P50 = pick(func(m eval.Metrics) float64 { return m.P50 })
	res.Metrics.P100, res.StdDev.P100 = pick(func(m eval.Metrics) float64 { return m.P100 })
	return res
}

// TableII reproduces activation prediction (Table II) on both datasets.
func (s *Suite) TableII() ([]DatasetResults, error) {
	var out []DatasetResults
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		m, err := s.Models(name)
		if err != nil {
			return nil, err
		}
		scorers := s.activationScorers(m)
		res := DatasetResults{Dataset: name}
		for _, method := range MethodNames() {
			var runs []eval.Metrics
			for _, scorer := range scorers[method] {
				metrics, err := eval.ActivationPrediction(ds.Graph, ds.Test, scorer)
				if err != nil {
					return nil, fmt.Errorf("experiments: Table II %s/%s: %w", name, method, err)
				}
				runs = append(runs, metrics)
			}
			res.Rows = append(res.Rows, aggregateRuns(method, runs))
		}
		out = append(out, res)
	}
	return out, nil
}

// diffusionScorers returns the §V-B2 scorer of every method for one
// dataset.
func (s *Suite) diffusionScorers(ds *SplitDataset, m *trainedModels) map[string][]eval.DiffusionScoreFunc {
	n := ds.Log.NumUsers()
	runs := 300 // Monte-Carlo runs per IC diffusion score (paper: 5,000)
	if s.opts.reduced() {
		runs = 50
	}
	seed := s.opts.Seed + 1000
	out := map[string][]eval.DiffusionScoreFunc{
		"DE":       {eval.MonteCarloDiffusionScorer(ds.Graph, m.de, runs, seed+1)},
		"ST":       {eval.MonteCarloDiffusionScorer(ds.Graph, m.st, runs, seed+2)},
		"EM":       {eval.MonteCarloDiffusionScorer(ds.Graph, m.em, runs, seed+3)},
		"Emb-IC":   {eval.MonteCarloDiffusionScorer(ds.Graph, m.embIC, runs, seed+4)},
		"MF":       {eval.LatentDiffusionScorer(m.mf, m.mfAgg, n)},
		"Node2vec": {eval.LatentDiffusionScorer(m.n2v, m.n2vAgg, n)},
	}
	var infRuns []eval.DiffusionScoreFunc
	for _, model := range m.inf {
		infRuns = append(infRuns, eval.LatentDiffusionScorer(model, m.infAgg, n))
	}
	out["Inf2vec"] = infRuns
	return out
}

// TableIII reproduces diffusion prediction (Table III) on both datasets.
func (s *Suite) TableIII() ([]DatasetResults, error) {
	var out []DatasetResults
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		m, err := s.Models(name)
		if err != nil {
			return nil, err
		}
		scorers := s.diffusionScorers(ds, m)
		res := DatasetResults{Dataset: name}
		for _, method := range MethodNames() {
			var runs []eval.Metrics
			for _, scorer := range scorers[method] {
				metrics, err := eval.DiffusionPrediction(ds.Graph, ds.Test, scorer, 0.05)
				if err != nil {
					return nil, fmt.Errorf("experiments: Table III %s/%s: %w", name, method, err)
				}
				runs = append(runs, metrics)
			}
			res.Rows = append(res.Rows, aggregateRuns(method, runs))
		}
		out = append(out, res)
	}
	return out, nil
}

// TableIVRow is one row of Table IV: Inf2vec-L on one task and dataset.
type TableIVRow struct {
	Task    string // "activation" or "diffusion"
	Dataset string
	Metrics eval.Metrics
}

// TableIV reproduces the Inf2vec-L (α=1) ablation on both tasks.
func (s *Suite) TableIV() ([]TableIVRow, error) {
	var out []TableIVRow
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		m, err := s.Models(name)
		if err != nil {
			return nil, err
		}
		model, err := s.inf2vecL(name, m)
		if err != nil {
			return nil, err
		}
		act, err := eval.ActivationPrediction(ds.Graph, ds.Test,
			eval.LatentActivationScorer(model, m.infAgg))
		if err != nil {
			return nil, fmt.Errorf("experiments: Table IV activation %s: %w", name, err)
		}
		out = append(out, TableIVRow{Task: "activation", Dataset: name, Metrics: act})
	}
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		m, err := s.Models(name)
		if err != nil {
			return nil, err
		}
		model, err := s.inf2vecL(name, m)
		if err != nil {
			return nil, err
		}
		diff, err := eval.DiffusionPrediction(ds.Graph, ds.Test,
			eval.LatentDiffusionScorer(model, m.infAgg, ds.Log.NumUsers()), 0.05)
		if err != nil {
			return nil, fmt.Errorf("experiments: Table IV diffusion %s: %w", name, err)
		}
		out = append(out, TableIVRow{Task: "diffusion", Dataset: name, Metrics: diff})
	}
	return out, nil
}

// TableVRow is one row of Table V: one aggregator's activation metrics.
type TableVRow struct {
	Dataset    string
	Aggregator eval.Aggregator
	Metrics    eval.Metrics
}

// TableV reproduces the aggregation-function comparison on the activation
// task, using the suite's first trained Inf2vec model.
func (s *Suite) TableV() ([]TableVRow, error) {
	var out []TableVRow
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		m, err := s.Models(name)
		if err != nil {
			return nil, err
		}
		model := m.inf[0]
		for _, agg := range eval.Aggregators() {
			metrics, err := eval.ActivationPrediction(ds.Graph, ds.Test,
				eval.LatentActivationScorer(model, agg))
			if err != nil {
				return nil, fmt.Errorf("experiments: Table V %s/%v: %w", name, agg, err)
			}
			out = append(out, TableVRow{Dataset: name, Aggregator: agg, Metrics: metrics})
		}
	}
	return out, nil
}

// TableVI reproduces the citation case study.
func (s *Suite) TableVI() (*citation.StudyResult, error) {
	cfg := citation.Config{Seed: s.opts.Seed + 70}
	embCfg := core.Config{Dim: 50, Iterations: 10, LearningRate: 0.02, Seed: s.opts.Seed + 71}
	mcRuns := 500
	if s.opts.reduced() {
		cfg.NumAuthors = 150
		cfg.NumPapers = 400
		embCfg.Dim = 16
		embCfg.Iterations = 5
		mcRuns = 50
	}
	data, err := citation.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: Table VI: %w", err)
	}
	res, err := citation.RunStudy(data, citation.StudyConfig{
		Embedding:      embCfg,
		MonteCarloRuns: mcRuns,
		Seed:           s.opts.Seed + 72,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: Table VI: %w", err)
	}
	return res, nil
}
