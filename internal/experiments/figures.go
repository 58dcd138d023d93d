package experiments

import (
	"fmt"
	"time"

	"inf2vec/internal/baseline/embic"
	"inf2vec/internal/core"
	"inf2vec/internal/diffusion"
	"inf2vec/internal/eval"
	"inf2vec/internal/stats"
	"inf2vec/internal/tsne"
)

// FrequencyFigure is one dataset's series for Figures 1 or 2: the
// frequency distribution of users as pair sources (or targets) plus a
// power-law exponent fit.
type FrequencyFigure struct {
	Dataset string
	Points  []stats.FreqPoint
	// Alpha is the fitted power-law exponent (0 when the fit is undefined).
	Alpha float64
	// LogLogSlope of the distribution; clearly negative means heavy-tailed.
	LogLogSlope float64
}

// frequencyFigure builds one figure from per-user frequencies.
func frequencyFigure(name string, freq []int64) FrequencyFigure {
	fig := FrequencyFigure{Dataset: name, Points: stats.FrequencyDistribution(freq)}
	if alpha, err := stats.PowerLawAlpha(freq, 3); err == nil {
		fig.Alpha = alpha
	}
	if slope, err := stats.LogLogSlope(fig.Points); err == nil {
		fig.LogLogSlope = slope
	}
	return fig
}

// Figure1 reproduces the source-user frequency distributions.
func (s *Suite) Figure1() ([]FrequencyFigure, error) {
	var out []FrequencyFigure
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		pc := diffusion.CountPairs(ds.Graph, ds.Log)
		out = append(out, frequencyFigure(name, pc.SourceFrequencies()))
	}
	return out, nil
}

// Figure2 reproduces the target-user frequency distributions.
func (s *Suite) Figure2() ([]FrequencyFigure, error) {
	var out []FrequencyFigure
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		pc := diffusion.CountPairs(ds.Graph, ds.Log)
		out = append(out, frequencyFigure(name, pc.TargetFrequencies()))
	}
	return out, nil
}

// CDFFigure is one dataset's Figure 3 series: P(#prior-active friends <= x).
type CDFFigure struct {
	Dataset string
	X       []int
	Y       []float64
}

// Figure3 reproduces the prior-active-friends CDF.
func (s *Suite) Figure3() ([]CDFFigure, error) {
	xs := []int{0, 1, 2, 3, 4, 5, 10, 20, 50}
	var out []CDFFigure
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		counts := eval.PriorActiveFriendCounts(ds.Graph, ds.Log)
		cdf := stats.NewCDF(counts)
		out = append(out, CDFFigure{Dataset: name, X: xs, Y: cdf.Points(xs)})
	}
	return out, nil
}

// VisualizationResult is one method's Figure 6 panel: a 2-D layout of the
// nodes covered by the most frequent influence pairs, plus the proximity
// ratio of the top-5 pairs (mean top-pair distance over mean all-pair
// distance; lower is better, Inf2vec should be lowest).
type VisualizationResult struct {
	Method    string
	Layout    []tsne.Point
	Highlight [][2]int // indices into Layout: the top-5 pairs
	Proximity float64
	// Users maps layout indices back to user IDs.
	Users []int32
}

// Figure6 reproduces the visualization comparison on the digg-like dataset:
// Emb-IC, MF, Node2vec and Inf2vec embeddings of the nodes in the most
// frequent influence pairs, t-SNE'd to 2-D.
func (s *Suite) Figure6() ([]VisualizationResult, error) {
	const dataset = "digg-like"
	ds, err := s.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	m, err := s.Models(dataset)
	if err != nil {
		return nil, err
	}

	// Top pairs (paper: 10,000 pairs covering 524 nodes; scaled down).
	topN := 300
	if s.opts.reduced() {
		topN = 60
	}
	pc := diffusion.CountPairs(ds.Graph, ds.Train)
	top := pc.TopPairs(topN)
	if len(top) < 5 {
		return nil, fmt.Errorf("experiments: Figure 6: only %d pairs available", len(top))
	}
	index := make(map[int32]int)
	var users []int32
	add := func(u int32) int {
		if i, ok := index[u]; ok {
			return i
		}
		i := len(users)
		index[u] = i
		users = append(users, u)
		return i
	}
	var highlight [][2]int
	for i, p := range top {
		a := add(p.Pair.Source)
		b := add(p.Pair.Target)
		if i < 5 {
			highlight = append(highlight, [2]int{a, b})
		}
	}

	type methodVecs struct {
		name string
		vec  func(u int32) []float32
	}
	methods := []methodVecs{
		{"Emb-IC", m.embIC.Store.Concat},
		{"MF", m.mf.Store.Concat},
		{"Node2vec", m.n2v.Store.Concat},
		{"Inf2vec", m.inf[0].Store.Concat},
	}
	iters := 400
	if s.opts.reduced() {
		iters = 120
	}
	var out []VisualizationResult
	for _, mv := range methods {
		x := make([][]float32, len(users))
		for i, u := range users {
			x[i] = mv.vec(u)
		}
		layout, err := tsne.Embed(x, tsne.Config{
			Perplexity: 20, Iterations: iters, Seed: s.opts.Seed + 60,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: Figure 6 %s: %w", mv.name, err)
		}
		prox, err := tsne.PairProximity(layout, highlight)
		if err != nil {
			return nil, fmt.Errorf("experiments: Figure 6 %s: %w", mv.name, err)
		}
		out = append(out, VisualizationResult{
			Method:    mv.name,
			Layout:    layout,
			Highlight: highlight,
			Proximity: prox,
			Users:     users,
		})
	}
	return out, nil
}

// SweepPoint is one (parameter value, MAP) measurement of Figures 7/8.
type SweepPoint struct {
	Value int
	MAP   float64
}

// SweepFigure is one dataset's parameter-sweep series.
type SweepFigure struct {
	Dataset string
	Points  []SweepPoint
}

// sweep trains Inf2vec at each configuration and evaluates activation MAP.
func (s *Suite) sweep(values []int, mutate func(*core.Config, int)) ([]SweepFigure, error) {
	var out []SweepFigure
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		fig := SweepFigure{Dataset: name}
		for _, v := range values {
			cfg := s.inf2vecConfig(s.opts.Seed + 40)
			cfg.Alpha = 0.15 // representative tuned value; sweeps vary one knob at a time
			mutate(&cfg, v)
			res, err := core.Train(ds.Graph, ds.Train, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep %s value %d: %w", name, v, err)
			}
			metrics, err := eval.ActivationPrediction(ds.Graph, ds.Test,
				eval.LatentActivationScorer(res.Model, eval.Max))
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep %s value %d: %w", name, v, err)
			}
			fig.Points = append(fig.Points, SweepPoint{Value: v, MAP: metrics.MAP})
		}
		out = append(out, fig)
	}
	return out, nil
}

// Figure7 reproduces the dimension sweep: MAP versus K.
func (s *Suite) Figure7() ([]SweepFigure, error) {
	values := []int{10, 25, 50, 100, 200}
	if s.opts.reduced() {
		values = []int{8, 16, 32}
	}
	return s.sweep(values, func(cfg *core.Config, k int) { cfg.Dim = k })
}

// Figure8 reproduces the context-length sweep: MAP versus L.
func (s *Suite) Figure8() ([]SweepFigure, error) {
	values := []int{10, 25, 50, 100}
	if s.opts.reduced() {
		values = []int{5, 10, 20}
	}
	return s.sweep(values, func(cfg *core.Config, l int) { cfg.ContextLength = l })
}

// TimingPoint is one (K, per-iteration seconds) measurement of Figure 9.
type TimingPoint struct {
	Dim     int
	Seconds float64
}

// TimingFigure is one (dataset, method) per-iteration timing series.
type TimingFigure struct {
	Dataset string
	Method  string // "Inf2vec", "Emb-IC", or "Inf2vec (pairs-only)"
	Points  []TimingPoint
}

// Figure9 reproduces the efficiency comparison: wall-clock time of one
// training iteration at varying K, for Inf2vec versus Emb-IC, plus
// Inf2vec's pairs-only mode (the paper's "without Algorithm 1" setting).
func (s *Suite) Figure9() ([]TimingFigure, error) {
	dims := []int{10, 25, 50, 100}
	if s.opts.reduced() {
		dims = []int{8, 16}
	}
	var out []TimingFigure
	for _, name := range DatasetNames() {
		ds, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		inf := TimingFigure{Dataset: name, Method: "Inf2vec"}
		pairs := TimingFigure{Dataset: name, Method: "Inf2vec (pairs-only)"}
		emb := TimingFigure{Dataset: name, Method: "Emb-IC"}
		for _, k := range dims {
			cfg := s.inf2vecConfig(s.opts.Seed + 50)
			cfg.Dim = k
			cfg.Iterations = 1
			res, err := core.Train(ds.Graph, ds.Train, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: Figure 9 Inf2vec %s K=%d: %w", name, k, err)
			}
			inf.Points = append(inf.Points, TimingPoint{Dim: k, Seconds: res.Epochs[0].Duration.Seconds()})

			cfg.FirstOrderOnly = true
			res, err = core.Train(ds.Graph, ds.Train, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: Figure 9 pairs-only %s K=%d: %w", name, k, err)
			}
			pairs.Points = append(pairs.Points, TimingPoint{Dim: k, Seconds: res.Epochs[0].Duration.Seconds()})

			start := time.Now()
			if _, err := embic.Train(ds.Graph, ds.Train, embic.Config{
				Dim: k, Iterations: 1, Seed: s.opts.Seed + 51,
			}); err != nil {
				return nil, fmt.Errorf("experiments: Figure 9 Emb-IC %s K=%d: %w", name, k, err)
			}
			emb.Points = append(emb.Points, TimingPoint{Dim: k, Seconds: time.Since(start).Seconds()})
		}
		out = append(out, inf, pairs, emb)
	}
	return out, nil
}
