package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/datagen"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/obs"
	"inf2vec/internal/pipeline"
	"inf2vec/internal/rng"
)

// stream-digg's shape: the log prefix the model is bootstrapped from, the
// actions appended per round, and the open-loop reader's rate and pairs.
// Step retrains on the whole prefix, so a round's work grows with the log;
// small batches keep 24 rounds within +20% of the first, so a slow spell
// of the host over part of a run moves the median round little. With 40
// actions a round the last round took 1.8x the first and the median of
// five runs of unchanged code spread by 0.27.
const (
	streamBootstrap = 1200
	streamBatch     = 10
	readerRate      = 500 // requests per second
	readerPairs     = 256
	// spinMargin is how long before a read's due time the reader stops
	// sleeping and spins. The host's timers wake ~1 ms late, so a reader
	// that slept until the due time measured mostly its own lateness.
	spinMargin = time.Millisecond
)

// streamTestEpisodes is how many whole episodes after the streamed part
// of the log make stream-digg's held-out split.
const streamTestEpisodes = 80

// streamEnv is stream-digg's set-up: the log still to append, a pipeline
// whose Notify is the in-process server's Reload, and the reader's pairs.
type streamEnv struct {
	logPath string
	pending [][]byte // one encoded batch per round
	pipe    *pipeline.Pipeline
	srv     *server
	reg     *obs.Registry
	pairs   [][2]int32
	models  [][]float64 // per published model: its Score over pairs
	last    *embed.Store

	g              *graph.Graph
	log            *actionlog.Log // the whole digg-like log
	test           *actionlog.Log // whole episodes after the streamed part
	modelPath      string
	tel            *trainTelemetry
	step           int          // the pipeline.Step span of the round in progress
	reloadsStarted atomic.Int64 // Notify calls so far, read by the reader
}

// setupStream writes the first streamBootstrap actions of a digg-like log,
// bootstraps a model from them, starts the in-process server and builds the
// pipeline that will serve the rest.
func setupStream(dir string, seed uint64, rounds int, tel *trainTelemetry) (*streamEnv, error) {
	ds, err := datagen.Generate(datagen.DiggLike(dataSeed))
	if err != nil {
		return nil, err
	}
	need := streamBootstrap + rounds*streamBatch
	var lines [][]byte
	var test []actionlog.Episode
	ds.Log.Episodes(func(e *actionlog.Episode) {
		if len(lines) >= need && len(test) < streamTestEpisodes {
			test = append(test, *e)
		}
		for _, rec := range e.Records {
			lines = append(lines, []byte(fmt.Sprintf("%d\t%d\t%g\n", rec.User, e.Item, rec.Time)))
		}
	})
	if len(lines) < need || len(test) < streamTestEpisodes {
		return nil, fmt.Errorf("digg-like log has %d actions, %d rounds need %d and %d episodes after them", len(lines), rounds, need, streamTestEpisodes)
	}
	env := &streamEnv{
		logPath:   filepath.Join(dir, "actions.tsv"),
		modelPath: filepath.Join(dir, "model.i2v"),
		g:         ds.Graph,
		log:       ds.Log,
		tel:       tel,
	}
	if env.test, err = actionlog.FromEpisodes(ds.Log.NumUsers(), test); err != nil {
		return nil, err
	}
	if err := writeFile(env.logPath, func(f *os.File) error {
		_, err := f.Write(bytes.Join(lines[:streamBootstrap], nil))
		return err
	}); err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		from := streamBootstrap + r*streamBatch
		env.pending = append(env.pending, bytes.Join(lines[from:from+streamBatch], nil))
	}

	logger, err := obs.NewLogger(io.Discard, "text", "info")
	if err != nil {
		return nil, err
	}
	cfg := pipeline.Config{
		Graph:     ds.Graph,
		LogPath:   env.logPath,
		ModelPath: env.modelPath,
		Train: core.Config{
			Dim: 50, ContextLength: 50, Alpha: 0.1, LearningRate: 0.005, Iterations: 10,
			NegativeSamples: 5, Workers: 1, Seed: seed, Telemetry: tel.event,
		},
		Logger: logger,
	}
	boot, err := pipeline.New(cfg)
	if err != nil {
		return nil, err
	}
	if published, err := boot.Step(context.Background()); err != nil || !published {
		return nil, fmt.Errorf("bootstrap round: published=%v err=%v", published, err)
	}
	// The pipeline CLI's in-process server: its text log and its registry.
	if env.srv, err = newServer(cfg.ModelPath, "", "text"); err != nil {
		return nil, err
	}
	env.reg = env.srv.srv.Metrics()
	cfg.Registry = env.reg
	tr := tel.tr
	cfg.Notify = func(context.Context) error {
		env.reloadsStarted.Add(1)
		start := tr.now()
		err := env.srv.srv.Reload()
		tr.record("Server.Reload", env.step, start, tr.now())
		return err
	}
	if env.pipe, err = pipeline.New(cfg); err != nil {
		env.srv.stop()
		return nil, err
	}

	r := rng.New(seed ^ 0x7ead)
	n := int(ds.Graph.NumNodes())
	for i := 0; i < readerPairs; i++ {
		env.pairs = append(env.pairs, [2]int32{int32(r.Intn(n)), int32(r.Intn(n))})
	}
	if err := env.recordModel(); err != nil {
		env.srv.stop()
		return nil, err
	}
	for _, p := range env.pairs {
		if _, _, err := env.srv.call("GET", scorePath(p), nil); err != nil {
			env.srv.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

func scorePath(p [2]int32) string { return fmt.Sprintf("/v1/score?source=%d&target=%d", p[0], p[1]) }

// recordModel loads the published model and keeps its scores over the
// reader's pairs, so reads can be checked against old and new models.
func (env *streamEnv) recordModel() error {
	st, err := embed.LoadFile(env.modelPath)
	if err != nil {
		return err
	}
	scores := make([]float64, len(env.pairs))
	for i, p := range env.pairs {
		scores[i] = st.Score(p[0], p[1])
	}
	env.models = append(env.models, scores)
	env.last = st
	return nil
}

// read is one open-loop /v1/score request.
type read struct {
	pair     int
	reloads  int64 // reloads started when it was sent
	score    float64
	lateness time.Duration // send time − due time
	latency  time.Duration // body read − due time
	err      error
}

// reader sends /v1/score at readerRate on a fixed schedule until stop,
// timing each request from its due time. It sleeps until spinMargin before
// the due time and spins the rest, yielding the processor on every turn.
func (env *streamEnv) reader(stop <-chan struct{}) []read {
	var out []read
	period := time.Second / readerRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due) - spinMargin; wait > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(wait):
			}
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		select {
		case <-stop:
			return out
		default:
		}
		rd := read{pair: i % len(env.pairs), reloads: env.reloadsStarted.Load(), lateness: time.Since(due)}
		body, _, err := env.srv.call("GET", scorePath(env.pairs[rd.pair]), nil)
		rd.latency = time.Since(due)
		if err == nil {
			var got struct{ Score float64 }
			err = json.Unmarshal(body, &got)
			rd.score = got.Score
		}
		rd.err = err
		out = append(out, rd)
	}
}

// statzCRC reads the serving model's CRC from /debug/statz.
func (s *server) statzCRC() (string, error) {
	body, err := s.get("/debug/statz")
	if err != nil {
		return "", err
	}
	var snap struct {
		Model struct {
			CRC32 string `json:"crc32"`
		} `json:"model"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return "", err
	}
	return snap.Model.CRC32, nil
}

// runRound appends one batch durably, runs pipeline.Step and waits until
// the server answers from the committed model. It returns the round's
// freshness: from the durable append until that answer.
func (env *streamEnv) runRound(batch []byte, traced bool) (time.Duration, error) {
	tr := env.tel.tr
	tr.on.Store(traced)
	defer tr.on.Store(false)

	f, err := os.OpenFile(env.logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return 0, err
	}
	_, werr := f.Write(batch)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		return 0, fmt.Errorf("appending batch: %w", err)
	}
	appended := time.Now()
	roundSpan := tr.open("round", 0)
	defer tr.close(roundSpan)

	// Corpus generation is timed from the Step call, so the log tail is in it.
	env.step = tr.open("pipeline.Step", roundSpan)
	env.tel.begin(env.step)
	published, err := env.pipe.Step(context.Background())
	tr.close(env.step)
	if err != nil || !published {
		return 0, fmt.Errorf("pipeline.Step: published=%v err=%v", published, err)
	}
	if env.tel.corpusEnd.IsZero() {
		return 0, fmt.Errorf("round reported no corpus_progress event")
	}

	want := fmt.Sprintf("%08x", env.pipe.Committed().ModelCRC)
	wait := tr.open("statz wait", roundSpan)
	defer tr.close(wait)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := env.srv.statzCRC()
		if err != nil {
			return 0, err
		}
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("/debug/statz crc32 %s, committed %s", got, want)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(appended), nil
}

// corpusCacheCounts scrapes the pipeline's corpus-cache counters from the
// registry the benchmark passed in.
func corpusCacheCounts(reg *obs.Registry) (hits, misses float64, err error) {
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.Bytes()
	if hits, err = scrape(body, "pipeline_corpus_cache_hits_total"); err != nil {
		return 0, 0, err
	}
	misses, err = scrape(body, "pipeline_corpus_cache_misses_total")
	return hits, misses, err
}

func runStreamDigg(o options, rep *report, tr *tracer) error {
	rounds := o.seconds
	tel := &trainTelemetry{tr: tr}
	var setups samples
	var env *streamEnv
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			if err := env.srv.stop(); err != nil {
				return err
			}
		}
		dir := filepath.Join(o.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		var err error
		if env, err = setupStream(dir, o.seed, rounds, tel); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	defer env.srv.stop()
	rep.add("setup_s", "s", setups.median(), len(setups))
	hits0, misses0, err := corpusCacheCounts(env.reg)
	if err != nil {
		return err
	}

	refs := hostRefs()
	heap := startHeapSampler()
	stop := make(chan struct{})
	var reads []read
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = env.reader(stop)
	}()
	// Freshness of each round, in order. In a traced run rounds are traced
	// in ABBA blocks, so the growth of a round's work through the run
	// cancels out of the tracing overhead.
	phaseStart := time.Now()
	var fresh samples
	for r := 0; r < rounds; r++ {
		d, err := env.runRound(env.pending[r], o.trace && abbaTraced(r))
		rep.attempt(err)
		if err != nil {
			break // later rounds would retrain a prefix the server never saw
		}
		if err := env.recordModel(); err != nil {
			rep.fail(err)
			break
		}
		fresh = append(fresh, millis(d))
	}
	phase := time.Since(phaseStart)
	close(stop)
	wg.Wait()
	addHeap(rep, heap)
	refs = append(refs, hostRefs()...)

	// Every read must carry the score of a model that was serving around
	// its send: the one before the reload in flight, or the one after.
	var readLat, late samples
	for _, rd := range reads {
		rep.attempted++
		if rd.err != nil {
			rep.fail(rd.err)
			continue
		}
		ok := false
		for m := rd.reloads - 1; m <= rd.reloads+1; m++ {
			if m >= 0 && int(m) < len(env.models) && math.Float64bits(env.models[m][rd.pair]) == math.Float64bits(rd.score) {
				ok = true
			}
		}
		if !ok {
			rep.fail(fmt.Errorf("read of pair %v returned %v, from no model serving around it", env.pairs[rd.pair], rd.score))
			continue
		}
		readLat = append(readLat, millis(rd.latency))
		late = append(late, millis(rd.lateness))
	}

	rep.addQuantile("op_p50_ms", "ms", fresh, 0.5)
	rep.add("ops_per_s", "1/s", float64(len(fresh))/phase.Seconds(), len(fresh))
	// The reads beside training; printed, not bounded.
	rep.addQuantile("read_p50_ms", "ms", readLat, 0.5)
	rep.addQuantile("read_p99_ms", "ms", readLat, 0.99)
	if !readLat.supports(0.99) {
		rep.note("read p99 has fewer than ten samples above it (n=%d)", len(readLat))
	}
	rep.addQuantile("loadgen.late_p50_ms", "ms", late, 0.5)
	rep.addQuantile("loadgen.late_p99_ms", "ms", late, 0.99)
	if len(fresh) > 0 {
		rep.note("rounds: %d; freshness %0.1f ms first, %0.1f ms last", len(fresh), fresh[0], fresh[len(fresh)-1])
	}
	tr.on.Store(o.trace)
	defer tr.on.Store(false)
	m, err := heldOut(env.g, env.test, env.last, tr)
	if err != nil {
		return err
	}
	rep.add("auc", "fraction", m.AUC, 1)
	rep.add("map", "fraction", m.MAP, 1)
	addHostRef(rep, refs)
	if !o.trace {
		return nil
	}
	hits1, misses1, err := corpusCacheCounts(env.reg)
	if err != nil {
		return err
	}
	hits, misses := hits1-hits0, misses1-misses0
	rep.add("core.corpus_cache_hit_frac", "fraction", ratio(hits, hits+misses), int(hits+misses))
	rep.addQuantile("pipeline.step_s", "s", tr.stats("pipeline.Step", seconds).length, 0.5)
	rep.addQuantile("checkpoint.write_ms", "ms", tr.stats("checkpoint", millis).length, 0.5)
	rep.addQuantile("serve.reload_ms", "ms", tr.stats("Server.Reload", millis).length, 0.5)
	// What no layer accounts for in Step: tail, publish and bookkeeping.
	rep.addQuantile("pipeline.other_ms", "ms", tr.stats("pipeline.Step", millis).self, 0.5)
	addTrainLayers(rep, tr, tel)
	rep.addQuantile("eval.activation_s", "s", tr.stats("eval.ActivationPrediction", seconds).length, 0.5)
	// What no layer accounts for in a round: the self time of Step and of
	// the round around Step and the statz wait.
	stepSelf, roundSelf := tr.stats("pipeline.Step", millis).self, tr.stats("round", millis).self
	var residuals samples
	for i := range min(len(stepSelf), len(roundSelf)) {
		residuals = append(residuals, stepSelf[i]+roundSelf[i])
	}
	rep.addQuantile("residual_ms", "ms", residuals, 0.5)
	overheads := abbaOverheads(fresh)
	rep.addQuantile("trace.overhead_frac", "fraction", overheads, 0.5)
	rep.note("tracing overhead on freshness: median of %d ABBA blocks (traced/untraced - 1): %v", len(overheads), overheads)

	// The scoring and serving layers, each alone, on the last model.
	lenv, err := layerEnv(env.g, env.log, env.modelPath, env.srv, o.seed)
	if err != nil {
		return err
	}
	_, err = lenv.layers(rep, tr)
	return err
}
