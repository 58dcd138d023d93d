package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/datagen"
	"inf2vec/internal/embed"
	"inf2vec/internal/eval"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// trainPasses is the SGD pass count of one train-flickr job, and
// trainJobSeconds the share of --seconds one job is given: eight ~4 s jobs
// at 24 s, so the median job holds when a slow spell of the host covers a
// few of them. With three 8-pass jobs a run's median moved with the one
// job a spell covered, and five runs of unchanged code spread by 0.14.
const (
	trainPasses     = 4
	trainJobSeconds = 3
)

// trainInputs is what train-flickr's set-up leaves for the measured phase.
type trainInputs struct {
	graphPath, logPath string
	graph              *graph.Graph
	test               *actionlog.Log
}

// setupTrain generates the flickr-like preset and writes the graph and the
// 80% training split; the remaining 20% of episodes is the held-out test
// split.
func setupTrain(dir string) (trainInputs, error) {
	ds, err := datagen.Generate(datagen.FlickrLike(dataSeed))
	if err != nil {
		return trainInputs{}, err
	}
	train, _, test, err := ds.Log.Split(dataSeed+101, 0.8, 0)
	if err != nil {
		return trainInputs{}, err
	}
	in := trainInputs{
		graphPath: filepath.Join(dir, "graph.tsv"),
		logPath:   filepath.Join(dir, "train.tsv"),
		graph:     ds.Graph,
		test:      test,
	}
	if err := writeFile(in.graphPath, func(f *os.File) error { return graph.WriteEdgeList(f, ds.Graph) }); err != nil {
		return in, err
	}
	err = writeFile(in.logPath, func(f *os.File) error { return actionlog.WriteTSV(f, train) })
	return in, err
}

// writeFile creates path and fills it. Set-up inputs are not synced: they
// only need to be readable by the measured phase, and an fsync per file made
// setup_s follow the shared disk's latency.
func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// trainJob is one measured job: its wall time and model. The benchmark
// keeps the model only until it has taken the reload check's fingerprint,
// so heap_mb does not count the models of earlier jobs.
type trainJob struct {
	total     time.Duration
	store     *embed.Store
	modelPath string
	users     int32
	dim       int
	want      []float64 // pairScores of the in-memory model
}

// trainTelemetry turns training Telemetry events into spans under the
// span of the call that trains: corpus generation from that call's start
// to the last corpus_progress event, each epoch, and each checkpoint from
// its epoch's end. It keeps the corpus size of every traced training run.
// Telemetry runs synchronously on the goroutine that called the trainer, so
// begin and the events need no lock.
type trainTelemetry struct {
	tr                                     *tracer
	parent                                 int
	start, corpusEnd, epochStart, epochEnd time.Time
	positives                              int64
	tuplesSeen, positivesSeen              samples
}

// begin marks the start of one training call whose span is parent.
func (t *trainTelemetry) begin(parent int) {
	t.parent, t.start, t.corpusEnd = parent, time.Now(), time.Time{}
}

func (t *trainTelemetry) event(e core.Event) {
	now := time.Now()
	tr := t.tr
	switch e.Kind {
	case core.EventCorpusProgress:
		t.corpusEnd = now
	case core.EventTrainStart:
		t.positives = e.NumPositives
		tr.record("core.corpus", t.parent, tr.at(t.start), tr.at(t.corpusEnd))
		if tr.enabled() {
			t.tuplesSeen = append(t.tuplesSeen, float64(e.NumTuples))
			t.positivesSeen = append(t.positivesSeen, float64(e.NumPositives))
		}
	case core.EventEpochStart:
		t.epochStart = now
	case core.EventEpochEnd:
		t.epochEnd = now
		tr.recordWork("trainer.epoch", t.parent, tr.at(t.epochStart), tr.at(now), t.positives)
	case core.EventCheckpointWritten:
		tr.record("checkpoint", t.parent, tr.at(t.epochEnd), tr.at(now))
	}
}

// addTrainLayers reports the training layers' per-layer metrics from the
// spans and counts tel gathered.
func addTrainLayers(rep *report, tr *tracer, tel *trainTelemetry) {
	rep.addQuantile("core.corpus_s", "s", tr.stats("core.corpus", seconds).length, 0.5)
	rep.addQuantile("core.tuples", "count", tel.tuplesSeen, 0.5)
	rep.addQuantile("core.positives", "count", tel.positivesSeen, 0.5)
	epochs := tr.stats("trainer.epoch", seconds)
	rep.addQuantile("trainer.epoch_p50_s", "s", epochs.length, 0.5)
	rep.addQuantile("trainer.examples_per_s", "1/s", epochs.rate, 0.5)
}

// runTrainJob reads the input files, trains and saves the model. Every layer
// call is wrapped in a span; corpus generation and epochs are spans made
// from the Telemetry callback's timestamps.
func runTrainJob(in trainInputs, seed uint64, modelPath string, tel *trainTelemetry) (*trainJob, error) {
	tr := tel.tr
	job := &trainJob{modelPath: modelPath}
	root := tr.open("train", 0)
	defer tr.close(root)
	start := time.Now()

	var g *graph.Graph
	var log *actionlog.Log
	var err error
	tr.timed("graph.ReadEdgeList", root, func() {
		g, err = readGraph(in.graphPath)
	})
	if err != nil {
		return nil, err
	}
	tr.timed("actionlog.ReadTSV", root, func() {
		log, err = readLog(in.logPath, g.NumNodes())
	})
	if err != nil {
		return nil, err
	}

	trainSpan := tr.open("core.TrainContext", root)
	tel.begin(trainSpan)
	cfg := core.Config{
		Dim:               50,
		ContextLength:     50,
		Alpha:             0.1,
		LearningRate:      0.025,
		DecayLearningRate: true,
		NegativeSamples:   5,
		Iterations:        trainPasses,
		Workers:           2,
		CorpusWorkers:     2,
		Seed:              seed,
		Telemetry:         tel.event,
	}
	res, err := core.TrainContext(context.Background(), g, log, cfg)
	tr.close(trainSpan)
	if err != nil {
		return nil, err
	}
	if tel.corpusEnd.IsZero() {
		return nil, fmt.Errorf("training reported no corpus_progress event")
	}
	job.store = res.Model.Store

	tr.timed("embed.Store.SaveFile", root, func() {
		err = job.store.SaveFile(modelPath)
	})
	if err != nil {
		return nil, err
	}
	job.total = time.Since(start)
	return job, nil
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f, 0)
}

func readLog(path string, numUsers int32) (*actionlog.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return actionlog.ReadTSV(f, numUsers)
}

// pairScores scores every user as source against a seeded sample of
// eight targets: the fingerprint the reload check compares.
func pairScores(st *embed.Store, seed uint64) []float64 {
	n := st.NumUsers()
	r := rng.New(seed ^ 0x5eed)
	out := make([]float64, 0, int(n)*8)
	for u := int32(0); u < n; u++ {
		for i := 0; i < 8; i++ {
			out = append(out, st.Score(u, int32(r.Intn(int(n)))))
		}
	}
	return out
}

// keepFingerprint takes the reload check's fingerprint of the job's model
// and drops the model.
func (job *trainJob) keepFingerprint(seed uint64) {
	job.users, job.dim = job.store.NumUsers(), job.store.Dim()
	job.want = pairScores(job.store, seed)
	job.store = nil
}

// checkReload reloads the saved model and compares its scores with the
// in-memory model's fingerprint bit for bit. It returns the reloaded model.
func checkReload(job *trainJob, seed uint64) (*embed.Store, error) {
	loaded, err := embed.LoadFile(job.modelPath)
	if err != nil {
		return nil, fmt.Errorf("reloading %s: %w", job.modelPath, err)
	}
	if loaded.NumUsers() != job.users || loaded.Dim() != job.dim {
		return nil, fmt.Errorf("reloaded model is %dx%d, trained %dx%d", loaded.NumUsers(), loaded.Dim(), job.users, job.dim)
	}
	for i, got := range pairScores(loaded, seed) {
		if math.Float64bits(got) != math.Float64bits(job.want[i]) {
			return nil, fmt.Errorf("reloaded score %d of source %d = %v, in memory %v", i%8, i/8, got, job.want[i])
		}
	}
	return loaded, nil
}

func runTrainFlickr(o options, rep *report, tr *tracer) error {
	var setups samples
	var in trainInputs
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		var err error
		if in, err = setupTrain(dir); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	rep.add("setup_s", "s", setups.median(), len(setups))

	jobs := max(1, o.seconds/trainJobSeconds)
	if o.trace {
		jobs = max(2, jobs) // one traced and one untraced, for the overhead
	}
	tel := &trainTelemetry{tr: tr}
	refs := hostRefs()
	heap := startHeapSampler()
	phaseStart := time.Now()
	var done []*trainJob
	var traced []bool
	for j := 0; j < jobs; j++ {
		// In a traced run even jobs are traced and odd ones are not, so
		// the tracing overhead is read within one run.
		tr.on.Store(o.trace && j%2 == 0)
		job, err := runTrainJob(in, o.seed, filepath.Join(o.dir, fmt.Sprintf("model%d.i2v", j)), tel)
		tr.on.Store(false)
		if err != nil {
			rep.attempt(fmt.Errorf("job %d: %w", j, err))
			continue
		}
		job.keepFingerprint(o.seed)
		done = append(done, job)
		traced = append(traced, o.trace && j%2 == 0)
	}
	phase := time.Since(phaseStart)
	addHeap(rep, heap)
	refs = append(refs, hostRefs()...)

	// Outside the timed phase: reload check and held-out quality.
	var totals, aucs, maps, tracedTotals, plainTotals samples
	for i, job := range done {
		store, err := checkReload(job, o.seed)
		rep.attempt(err)
		if err != nil {
			continue
		}
		tr.on.Store(traced[i])
		m, err := heldOut(in.graph, in.test, store, tr)
		tr.on.Store(false)
		if err != nil {
			rep.fail(err)
			continue
		}
		totals = append(totals, millis(job.total))
		aucs = append(aucs, m.AUC)
		maps = append(maps, m.MAP)
		if traced[i] {
			tracedTotals = append(tracedTotals, millis(job.total))
		} else {
			plainTotals = append(plainTotals, millis(job.total))
		}
	}
	rep.addQuantile("op_p50_ms", "ms", totals, 0.5)
	rep.add("ops_per_s", "1/s", float64(len(done))/phase.Seconds(), len(done))
	rep.addQuantile("auc", "fraction", aucs, 0.5)
	rep.addQuantile("map", "fraction", maps, 0.5)
	addHostRef(rep, refs)
	if !o.trace || len(done) == 0 {
		return nil
	}
	rep.addQuantile("graph.read_s", "s", tr.stats("graph.ReadEdgeList", seconds).length, 0.5)
	rep.addQuantile("actionlog.read_s", "s", tr.stats("actionlog.ReadTSV", seconds).length, 0.5)
	rep.addQuantile("embed.save_s", "s", tr.stats("embed.Store.SaveFile", seconds).length, 0.5)
	addTrainLayers(rep, tr, tel)
	rep.addQuantile("eval.activation_s", "s", tr.stats("eval.ActivationPrediction", seconds).length, 0.5)
	// What no layer accounts for in a job: the self time of the job's span
	// and of the TrainContext call around corpus generation and the epochs.
	jobSelf, callSelf := tr.stats("train", millis).self, tr.stats("core.TrainContext", millis).self
	var residuals samples
	for i := range min(len(jobSelf), len(callSelf)) {
		residuals = append(residuals, jobSelf[i]+callSelf[i])
	}
	rep.addQuantile("residual_ms", "ms", residuals, 0.5)
	addOverhead(rep, "op_p50_ms", tracedTotals, plainTotals)

	// The scoring and serving layers, each alone, on the last job's model.
	tr.on.Store(true)
	defer tr.on.Store(false)
	last := done[len(done)-1]
	srv, err := newServer(last.modelPath, in.graphPath, "json")
	if err != nil {
		return err
	}
	defer srv.stop()
	env, err := layerEnv(in.graph, in.test, last.modelPath, srv, o.seed)
	if err != nil {
		return err
	}
	_, err = env.layers(rep, tr)
	return err
}

// heldOut scores held-out activation prediction (paper §V-B1, Max
// aggregator) for store on the test episodes, inside an
// eval.ActivationPrediction span.
func heldOut(g *graph.Graph, test *actionlog.Log, store *embed.Store, tr *tracer) (eval.Metrics, error) {
	var m eval.Metrics
	var err error
	tr.timed("eval.ActivationPrediction", 0, func() {
		m, err = eval.ActivationPrediction(g, test, eval.LatentActivationScorer(store, eval.Max))
	})
	if err != nil {
		err = fmt.Errorf("activation prediction: %w", err)
	}
	return m, err
}

// addHostRef reports host.ref_ms from the reference loops run before and
// after the measured phase (three each).
func addHostRef(rep *report, refs samples) {
	rep.add("host.ref_ms", "ms", refs.median(), len(refs))
	rep.note("host.ref_ms before %.1f after %.1f", refs[:3].median(), refs[3:].median())
}

// addOverhead reports the traced units' median over the untraced units'
// median, minus one.
func addOverhead(rep *report, of string, traced, plain samples) {
	if len(traced) == 0 || len(plain) == 0 {
		rep.fail(fmt.Errorf("tracing overhead of %s: %d traced and %d untraced units", of, len(traced), len(plain)))
		return
	}
	rep.add("trace.overhead_frac", "fraction", traced.median()/plain.median()-1, len(traced)+len(plain))
	rep.note("tracing overhead on %s: traced median %.6g (n=%d), untraced median %.6g (n=%d)",
		of, traced.median(), len(traced), plain.median(), len(plain))
}
