// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices called
// out in DESIGN.md §4.
//
// Run everything with
//
//	go test -bench=. -benchmem -timeout 0
//
// (the paper-scale suite exceeds Go's default 10-minute test timeout on a
// single core).
//
// Each table/figure bench renders its paper-shaped output once (to standard
// output) and reports headline numbers as custom benchmark metrics, so the
// bench log doubles as the reproduction record (EXPERIMENTS.md is generated
// from it).
//
// The paper-scale benches share one Suite — datasets and the seven trained
// methods are built once and reused, mirroring how the paper's tables share
// trained models. Ablation benches run on the reduced (Quick) scale so the
// full harness stays within tens of minutes.
package inf2vec

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"inf2vec/internal/baseline/embic"
	"inf2vec/internal/baseline/node2vec"
	"inf2vec/internal/core"
	"inf2vec/internal/datagen"
	"inf2vec/internal/eval"
	"inf2vec/internal/experiments"
	"inf2vec/internal/rng"
)

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

// suite returns the shared full-scale experiment suite. Full-scale runs take
// minutes per section, so these benches are excluded from -short smoke runs
// (CI executes `go test -short -bench . -benchtime=1x`; the small-scale
// ablation benches below still run there).
func suite(b *testing.B) *experiments.Suite {
	if testing.Short() {
		b.Skip("full-scale paper reproduction skipped in -short mode")
	}
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Options{Seed: 1})
	})
	return benchSuite
}

var printOnce sync.Map

// printFirst renders output only on a bench's first execution, so repeated
// b.N iterations do not spam the log.
func printFirst(key string, render func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		render()
	}
}

func BenchmarkTableI_DatasetStats(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.TableI()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table1", func() {
			if err := experiments.RenderTableI(os.Stdout, rows); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFigure1_SourceFrequency(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		figs, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig1", func() {
			if err := experiments.RenderFrequencyFigures(os.Stdout, "Figure 1 (source users)", figs); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(figs[0].LogLogSlope, "digg-loglog-slope")
	}
}

func BenchmarkFigure2_TargetFrequency(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		figs, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig2", func() {
			if err := experiments.RenderFrequencyFigures(os.Stdout, "Figure 2 (target users)", figs); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(figs[0].LogLogSlope, "digg-loglog-slope")
	}
}

func BenchmarkFigure3_PriorFriendsCDF(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		figs, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig3", func() {
			if err := experiments.RenderCDFFigures(os.Stdout, figs); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(figs[0].Y[0], "digg-CDF0")
		b.ReportMetric(figs[1].Y[0], "flickr-CDF0")
	}
}

// reportInf2vec surfaces the Inf2vec row's AUC/MAP as bench metrics.
func reportInf2vec(b *testing.B, results []experiments.DatasetResults, prefix string) {
	b.Helper()
	for _, dr := range results {
		for _, row := range dr.Rows {
			if row.Method == "Inf2vec" {
				b.ReportMetric(row.Metrics.AUC, dr.Dataset+"-"+prefix+"-AUC")
				b.ReportMetric(row.Metrics.MAP, dr.Dataset+"-"+prefix+"-MAP")
			}
		}
	}
}

func BenchmarkTableII_ActivationPrediction(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		results, err := s.TableII()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table2", func() {
			if err := experiments.RenderMethodTable(os.Stdout, "Table II: activation prediction", results); err != nil {
				b.Fatal(err)
			}
		})
		reportInf2vec(b, results, "act")
	}
}

func BenchmarkTableIII_DiffusionPrediction(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		results, err := s.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table3", func() {
			if err := experiments.RenderMethodTable(os.Stdout, "Table III: diffusion prediction", results); err != nil {
				b.Fatal(err)
			}
		})
		reportInf2vec(b, results, "diff")
	}
}

func BenchmarkTableIV_Inf2vecL(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table4", func() {
			if err := experiments.RenderTableIV(os.Stdout, rows); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(rows[0].Metrics.MAP, "digg-act-MAP")
	}
}

func BenchmarkTableV_Aggregators(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.TableV()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table5", func() {
			if err := experiments.RenderTableV(os.Stdout, rows); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFigure6_Visualization(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		figs, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig6", func() {
			if err := experiments.RenderVisualization(os.Stdout, figs); err != nil {
				b.Fatal(err)
			}
		})
		for _, fig := range figs {
			if fig.Method == "Inf2vec" {
				b.ReportMetric(fig.Proximity, "inf2vec-proximity")
			}
		}
	}
}

func BenchmarkFigure7_DimensionSweep(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		figs, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig7", func() {
			if err := experiments.RenderSweep(os.Stdout, "Figure 7: MAP vs dimension K", "K", figs); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFigure8_ContextLengthSweep(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		figs, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig8", func() {
			if err := experiments.RenderSweep(os.Stdout, "Figure 8: MAP vs context length L", "L", figs); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFigure9_IterationTime(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		figs, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig9", func() {
			if err := experiments.RenderTiming(os.Stdout, figs); err != nil {
				b.Fatal(err)
			}
		})
		// Headline: Emb-IC seconds per iteration divided by Inf2vec's, at
		// the largest common K on the digg-like dataset.
		var inf, emb float64
		for _, fig := range figs {
			if fig.Dataset != "digg-like" {
				continue
			}
			last := fig.Points[len(fig.Points)-1].Seconds
			switch fig.Method {
			case "Inf2vec":
				inf = last
			case "Emb-IC":
				emb = last
			}
		}
		if inf > 0 {
			b.ReportMetric(emb/inf, "embic-vs-inf2vec-slowdown")
		}
	}
}

func BenchmarkTableVI_CitationCaseStudy(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		res, err := s.TableVI()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table6", func() {
			if err := experiments.RenderTableVI(os.Stdout, res); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(res.EmbeddingPrecision, "embedding-P10")
		b.ReportMetric(res.ConventionalPrecision, "conventional-P10")
	}
}

// --- Ablation benches (DESIGN.md §4), reduced scale ---

// ablationWorld lazily generates the shared small-scale ablation dataset.
var ablationWorld = sync.OnceValues(func() (*datagen.Dataset, error) {
	cfg := datagen.DiggLike(17)
	cfg.NumUsers = 600
	cfg.NumItems = 150
	return datagen.Generate(cfg)
})

// runAblation trains one configuration on the ablation world and returns
// held-out activation metrics.
func runAblation(b *testing.B, mutate func(*core.Config)) eval.Metrics {
	b.Helper()
	ds, err := ablationWorld()
	if err != nil {
		b.Fatal(err)
	}
	train, _, test, err := ds.Log.Split(3, 0.8, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Dim: 24, ContextLength: 30, Alpha: 0.15,
		LearningRate: 0.025, DecayLearningRate: true,
		Iterations: 15, Seed: 5,
	}
	mutate(&cfg)
	res, err := core.Train(ds.Graph, train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	metrics, err := eval.ActivationPrediction(ds.Graph, test,
		eval.LatentActivationScorer(res.Model, eval.Max))
	if err != nil {
		b.Fatal(err)
	}
	return metrics
}

func BenchmarkAblationAlphaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printFirst("abl-alpha", func() { fmt.Println("Ablation: component weight alpha (activation MAP)") })
		for _, alpha := range []float64{0, 0.15, 0.5, 1.0} {
			m := runAblation(b, func(c *core.Config) { c.Alpha = alpha })
			printFirst(fmt.Sprintf("abl-alpha-%v", alpha), func() {
				fmt.Printf("  alpha=%.2f  AUC=%.4f MAP=%.4f\n", alpha, m.AUC, m.MAP)
			})
			b.ReportMetric(m.MAP, fmt.Sprintf("MAP-alpha%.2f", alpha))
		}
	}
}

func BenchmarkAblationNegativeSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		uniform := runAblation(b, func(c *core.Config) { c.NegativePower = 0 })
		unigram := runAblation(b, func(c *core.Config) { c.NegativePower = 0.75 })
		printFirst("abl-neg", func() {
			fmt.Printf("Ablation: negative sampling — uniform MAP=%.4f, unigram^0.75 MAP=%.4f\n",
				uniform.MAP, unigram.MAP)
		})
		b.ReportMetric(uniform.MAP, "MAP-uniform")
		b.ReportMetric(unigram.MAP, "MAP-unigram075")
	}
}

func BenchmarkAblationRestartRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printFirst("abl-restart", func() { fmt.Println("Ablation: random-walk restart ratio (activation MAP)") })
		for _, ratio := range []float64{0.2, 0.5, 0.8} {
			m := runAblation(b, func(c *core.Config) { c.RestartRatio = ratio; c.Alpha = 0.5 })
			printFirst(fmt.Sprintf("abl-restart-%v", ratio), func() {
				fmt.Printf("  restart=%.1f  AUC=%.4f MAP=%.4f\n", ratio, m.AUC, m.MAP)
			})
			b.ReportMetric(m.MAP, fmt.Sprintf("MAP-restart%.1f", ratio))
		}
	}
}

func BenchmarkAblationBiases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := runAblation(b, func(c *core.Config) {})
		without := runAblation(b, func(c *core.Config) { c.DisableBiases = true })
		printFirst("abl-bias", func() {
			fmt.Printf("Ablation: biases — with MAP=%.4f, without MAP=%.4f\n", with.MAP, without.MAP)
		})
		b.ReportMetric(with.MAP, "MAP-with-biases")
		b.ReportMetric(without.MAP, "MAP-without-biases")
	}
}

func BenchmarkAblationHighOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := runAblation(b, func(c *core.Config) {})
		pairs := runAblation(b, func(c *core.Config) { c.FirstOrderOnly = true })
		printFirst("abl-order", func() {
			fmt.Printf("Ablation: context — full Algorithm 1 MAP=%.4f, first-order pairs only MAP=%.4f\n",
				full.MAP, pairs.MAP)
		})
		b.ReportMetric(full.MAP, "MAP-full-context")
		b.ReportMetric(pairs.MAP, "MAP-pairs-only")
	}
}

// BenchmarkCorpusGeneration measures the context-generation phase
// (Algorithm 2 lines 3–8) at 1, 2 and GOMAXPROCS corpus workers on the
// digg-like ablation world. The corpus is bitwise identical at every worker
// count, so the episodes/s column is the only thing that should move.
func BenchmarkCorpusGeneration(b *testing.B) {
	ds, err := ablationWorld()
	if err != nil {
		b.Fatal(err)
	}
	train, _, _, err := ds.Log.Split(3, 0.8, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.Config{
				ContextLength: 50, Alpha: 0.1, RestartRatio: 0.5,
				CorpusWorkers: workers,
			}
			var tuples int
			for i := 0; i < b.N; i++ {
				c := core.GenerateCorpus(ds.Graph, train, cfg, rng.New(5))
				tuples = len(c.Tuples)
			}
			episodes := float64(train.NumEpisodes())
			b.ReportMetric(episodes*float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
			b.ReportMetric(float64(tuples), "tuples")
		})
	}
}

// flickrCorpus lazily generates train-flickr's corpus: the flickr-like
// preset's graph and an 80% split of its episodes, with influence contexts
// drawn at K=50, L=50, α=0.1.
var flickrCorpus = sync.OnceValues(func() (*core.Corpus, error) {
	ds, err := datagen.Generate(datagen.FlickrLike(1))
	if err != nil {
		return nil, err
	}
	train, _, _, err := ds.Log.Split(102, 0.8, 0)
	if err != nil {
		return nil, err
	}
	return core.GenerateCorpus(ds.Graph, train, flickrConfig(), rng.New(1)), nil
})

// flickrConfig is train-flickr's training configuration: K=50, L=50,
// α=0.1, γ=0.025 linearly decayed, |N|=5, 4 passes.
func flickrConfig() core.Config {
	return core.Config{
		Dim: 50, ContextLength: 50, Alpha: 0.1, LearningRate: 0.025,
		DecayLearningRate: true, NegativeSamples: 5, Iterations: 4, Seed: 5,
	}
}

// BenchmarkTrainThroughput measures SGD throughput (positives/second) on
// train-flickr's corpus and configuration at one worker and at two. Each
// iteration trains once at each worker count, alternating which goes
// first, so both sides see the same host state; the stratified pass trains
// the same model at both, so the ratio of their rates, reported as
// speedup, is its parallel speedup. Each side's clock covers its
// TrainOnCorpus calls; corpus generation is outside it.
func BenchmarkTrainThroughput(b *testing.B) {
	corpus, err := flickrCorpus()
	if err != nil {
		b.Fatal(err)
	}
	var elapsed [2]time.Duration // at one worker and at two
	for i := 0; i < b.N; i++ {
		for k := range elapsed {
			side := (i + k) % 2
			cfg := flickrConfig()
			cfg.Workers = side + 1
			start := time.Now()
			if _, err := core.TrainOnCorpus(int32(len(corpus.ContextFreq)), corpus, cfg); err != nil {
				b.Fatal(err)
			}
			elapsed[side] += time.Since(start)
		}
	}
	positives := float64(corpus.NumPositives) * float64(flickrConfig().Iterations) * float64(b.N)
	b.ReportMetric(positives/elapsed[0].Seconds(), "positives/s@1")
	b.ReportMetric(positives/elapsed[1].Seconds(), "positives/s@2")
	b.ReportMetric(elapsed[0].Seconds()/elapsed[1].Seconds(), "speedup")
}

// baselineWorld lazily generates the paper-scale dataset shared by the
// baseline-training benches.
var baselineWorld = sync.OnceValues(func() (*datagen.Dataset, error) {
	return datagen.Generate(datagen.DiggLike(1))
})

// BenchmarkBaselineTraining measures the trainer engine's parallel speedup
// on the two heaviest rebuilt baselines: node2vec and Emb-IC at 1 worker
// and at GOMAXPROCS workers on the paper-scale digg-like world. The models
// are bitwise identical at every worker count, so the ratio of the two
// timings is pure engine speedup. -short shrinks the training budget but
// still exercises both methods at both worker counts.
func BenchmarkBaselineTraining(b *testing.B) {
	ds, err := baselineWorld()
	if err != nil {
		b.Fatal(err)
	}
	n2vCfg := node2vec.Config{
		Dim: 50, WalksPerNode: 10, WalkLength: 40, Window: 5, Epochs: 2, Seed: 7,
	}
	embCfg := embic.Config{Dim: 50, Iterations: 10, Seed: 7}
	if testing.Short() {
		n2vCfg.WalksPerNode = 2
		n2vCfg.Epochs = 1
		embCfg.Iterations = 2
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("node2vec/workers=%d", workers), func(b *testing.B) {
			cfg := n2vCfg
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := node2vec.Train(ds.Graph, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("embic/workers=%d", workers), func(b *testing.B) {
			cfg := embCfg
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := embic.Train(ds.Graph, ds.Log, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
