package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/datagen"
	"inf2vec/internal/embed"
	"inf2vec/internal/eval"
	"inf2vec/internal/graph"
	"inf2vec/internal/infmax"
	"inf2vec/internal/obs"
	"inf2vec/internal/rng"
	"inf2vec/internal/serve"
	"inf2vec/internal/vecmath"
)

// serve-digg's traffic shape. It is assumed, not measured: the repository
// holds no access log or traffic record to derive it from. Point routes get
// most requests (60% score, 30% activation) and top-k a tenth, which at
// ~6x a score's in-memory cost still takes a visible share of server time.
// seedsEvery and seedsRepeatShare were set so that a 24 s run (~13k req/s)
// sends ~39 seeds requests of which ~30 are computed, so seeds_p50_ms lands
// on a computed answer. seedsK, seedsMCRuns and the candidate pool size one
// computed answer at ~230 ms: long next to a point request, so its spill
// into the other routes' tail shows, while the ~30 of them hold one of the
// two callers for ~15% of the run. Derive the shares from recorded traffic
// once the repository has such a record.
const (
	serveCallers     = 2
	seedsEvery       = 8000 // one /v1/seeds per this many requests
	seedsRepeatShare = 0.25 // share of seeds requests repeating an earlier one
	seedsK           = 4
	seedsMCRuns      = 40
	seedsPool        = 40 // candidates per request, drawn from the top seedsTop by degree
	seedsTop         = 48
	topkSources      = 256 // distinct /v1/topk sources
	seqLen           = 1 << 16
)

// Request kinds, also the span and sample names.
const (
	opScore      = "/v1/score"
	opActivation = "/v1/activation"
	opTopK       = "/v1/topk"
	opSeeds      = "/v1/seeds"
)

// op is one request of the replayed sequence.
type op struct {
	kind   string
	u, v   int32
	active []int32
}

// seedsReq is one /v1/seeds request; repeatOf is the index of the earlier
// request it repeats, or -1.
type seedsReq struct {
	candidates []int32
	repeatOf   int
}

// server is an in-process serve.Server listening on loopback, plus the
// benchmark's own count of API requests sent to it.
type server struct {
	srv    *serve.Server
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
	sent   atomic.Int64
}

// startServer runs srv on an ephemeral loopback port until stop.
func startServer(srv *serve.Server) (*server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Addr() == "" {
		select {
		case err := <-s.done:
			cancel()
			return nil, fmt.Errorf("server exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("server did not start listening")
		}
		time.Sleep(time.Millisecond)
	}
	s.base = "http://" + srv.Addr()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	return s, nil
}

// stop drains the server and waits for Run to return.
func (s *server) stop() error {
	s.cancel()
	err := <-s.done
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	return err
}

// call sends one API request and reads the whole body; the returned time
// covers send until the body has been read.
func (s *server) call(method, path string, body []byte) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	s.sent.Add(1)
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, elapsed, err
	}
	if resp.StatusCode/100 != 2 {
		return out, elapsed, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, elapsed, nil
}

// get fetches a non-API route (not counted as an API request).
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return out, err
}

// newServer starts serve.New at cmd/serve's defaults on modelPath, with the
// access log formatted and discarded.
func newServer(modelPath, graphPath, logFormat string) (*server, error) {
	logger, err := obs.NewLogger(io.Discard, logFormat, "info")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Addr:      "127.0.0.1:0",
		ModelPath: modelPath,
		GraphPath: graphPath,
		Logger:    logger,
		Trace:     obs.TracerConfig{SampleRate: 0.01},
	})
	if err != nil {
		return nil, err
	}
	return startServer(srv)
}

// serveEnv is a served model with what the benchmark checks it against:
// the model loaded into an in-process scorer over the same file, and the
// request sequence. serve-digg sends the sequence through the closed loop;
// every workload's traced run times each layer alone on it (layers).
type serveEnv struct {
	g      *graph.Graph
	store  *embed.Store
	scorer *eval.Scorer
	srv    *server
	seq    []op
	seeds  []seedsReq
	topk   map[int32][]eval.Ranked // expected answers per source
	test   *actionlog.Log          // held-out episodes (serve-digg)
}

// layerEnv loads the model file srv serves into an in-process scorer and
// draws a request sequence from g and log.
func layerEnv(g *graph.Graph, log *actionlog.Log, modelPath string, srv *server, seed uint64) (*serveEnv, error) {
	store, err := embed.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	scorer, err := eval.NewScorer(store, store.NumUsers())
	if err != nil {
		return nil, err
	}
	env := &serveEnv{g: g, store: store, scorer: scorer, srv: srv}
	env.seq, env.seeds = buildSequence(g, log, seed)
	return env, nil
}

// setupServe generates digg-like, trains the served model on its 80%
// training split at one worker for a fixed 2-pass budget, and starts and
// warms the server. The remaining 20% of episodes is the held-out split.
func setupServe(dir string, seed uint64, tel *trainTelemetry) (*serveEnv, error) {
	ds, err := datagen.Generate(datagen.DiggLike(dataSeed))
	if err != nil {
		return nil, err
	}
	train, _, test, err := ds.Log.Split(dataSeed+101, 0.8, 0)
	if err != nil {
		return nil, err
	}
	graphPath := filepath.Join(dir, "graph.tsv")
	modelPath := filepath.Join(dir, "model.i2v")
	if err := writeFile(graphPath, func(f *os.File) error { return graph.WriteEdgeList(f, ds.Graph) }); err != nil {
		return nil, err
	}
	tr := tel.tr
	span := tr.open("core.TrainContext", 0)
	tel.begin(span)
	res, err := core.TrainContext(context.Background(), ds.Graph, train, core.Config{
		Dim: 50, ContextLength: 50, Alpha: 0.1, LearningRate: 0.025, DecayLearningRate: true,
		NegativeSamples: 5, Iterations: 2, Workers: 1, CorpusWorkers: 2, Seed: dataSeed,
		Telemetry: tel.event,
	})
	tr.close(span)
	if err != nil {
		return nil, err
	}
	if err := res.Model.Store.SaveFile(modelPath); err != nil {
		return nil, err
	}
	srv, err := newServer(modelPath, graphPath, "json")
	if err != nil {
		return nil, err
	}
	env, err := layerEnv(ds.Graph, ds.Log, modelPath, srv, seed)
	if err != nil {
		srv.stop()
		return nil, err
	}
	env.test = test
	for _, o := range env.seq[:300] {
		if _, _, err := srv.call(o.request()); err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

// buildSequence draws the seeded request sequence: 60% score, 30%
// activation (active set = an episode's adopters before the candidate, at
// most 20), 10% top-k over topkSources sources; plus the seeds requests.
func buildSequence(g *graph.Graph, log *actionlog.Log, seed uint64) ([]op, []seedsReq) {
	r := rng.New(seed ^ 0x5e0e)
	n := int(g.NumNodes())
	var eps []*actionlog.Episode
	log.Episodes(func(e *actionlog.Episode) {
		if e.Len() >= 2 {
			eps = append(eps, e)
		}
	})
	sources := make([]int32, topkSources)
	for i := range sources {
		sources[i] = int32(r.Intn(n))
	}
	seq := make([]op, seqLen)
	for i := range seq {
		switch x := r.Float64(); {
		case x < 0.6:
			seq[i] = op{kind: opScore, u: int32(r.Intn(n)), v: int32(r.Intn(n))}
		case x < 0.9:
			e := eps[r.Intn(len(eps))]
			users := e.Users()
			p := 1 + r.Intn(len(users)-1)
			active := users[max(0, p-20):p]
			seq[i] = op{kind: opActivation, v: users[p], active: active}
		default:
			seq[i] = op{kind: opTopK, u: sources[r.Intn(len(sources))]}
		}
	}

	top := make([]int32, n)
	for i := range top {
		top[i] = int32(i)
	}
	sort.Slice(top, func(i, j int) bool {
		a, b := top[i], top[j]
		if da, db := g.OutDegree(a), g.OutDegree(b); da != db {
			return da > db
		}
		return a < b
	})
	top = top[:seedsTop]
	seeds := make([]seedsReq, 0, 256)
	var fresh []int
	for len(seeds) < cap(seeds) {
		if len(fresh) > 0 && r.Float64() < seedsRepeatShare {
			seeds = append(seeds, seedsReq{repeatOf: fresh[r.Intn(len(fresh))]})
			continue
		}
		perm := r.Perm(seedsTop)[:seedsPool]
		cands := make([]int32, seedsPool)
		for i, p := range perm {
			cands[i] = top[p]
		}
		fresh = append(fresh, len(seeds))
		seeds = append(seeds, seedsReq{candidates: cands, repeatOf: -1})
	}
	return seq, seeds
}

// request renders a non-seeds op as an HTTP request.
func (o op) request() (method, path string, body []byte) {
	switch o.kind {
	case opScore:
		return http.MethodGet, fmt.Sprintf("/v1/score?source=%d&target=%d", o.u, o.v), nil
	case opActivation:
		body, _ := json.Marshal(map[string]any{"active": o.active, "candidate": o.v})
		return http.MethodPost, "/v1/activation", body
	default:
		return http.MethodGet, fmt.Sprintf("/v1/topk?source=%d&k=10", o.u), nil
	}
}

// seedsBody renders seeds request i.
func (env *serveEnv) seedsBody(i int) []byte {
	req := env.seeds[i]
	if req.repeatOf >= 0 {
		req = env.seeds[req.repeatOf]
	}
	body, _ := json.Marshal(map[string]any{
		"k": seedsK, "mc_runs": seedsMCRuns, "policy": "list", "candidates": req.candidates,
	})
	return body
}

// check compares one answer with the in-process scorer on the same file:
// scores by Float64bits, top-k lists entry by entry in order.
func (env *serveEnv) check(o op, body []byte) error {
	switch o.kind {
	case opScore:
		var got struct{ Score float64 }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := env.scorer.Pair(o.u, o.v)
		if err != nil || math.Float64bits(got.Score) != math.Float64bits(want) {
			return fmt.Errorf("score(%d,%d) = %v, scorer %v (%v)", o.u, o.v, got.Score, want, err)
		}
	case opActivation:
		var got struct{ Score float64 }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := env.scorer.Activation(o.active, o.v, eval.Ave)
		if err != nil || math.Float64bits(got.Score) != math.Float64bits(want) {
			return fmt.Errorf("activation(%v,%d) = %v, scorer %v (%v)", o.active, o.v, got.Score, want, err)
		}
	case opTopK:
		var got struct{ Results []eval.Ranked }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := env.topk[o.u]
		if len(got.Results) != len(want) {
			return fmt.Errorf("topk(%d): %d results, scorer %d", o.u, len(got.Results), len(want))
		}
		for i := range want {
			if got.Results[i].User != want[i].User || math.Float64bits(got.Results[i].Score) != math.Float64bits(want[i].Score) {
				return fmt.Errorf("topk(%d)[%d] = %+v, scorer %+v", o.u, i, got.Results[i], want[i])
			}
		}
	}
	return nil
}

// seedsAnswer is the part of a /v1/seeds answer the benchmark checks.
type seedsAnswer struct {
	Seeds       []int32 `json:"seeds"`
	Evaluations int     `json:"evaluations"`
	Partial     bool    `json:"partial"`
	Cached      bool    `json:"cached"`
}

// loopStats is one closed-loop phase's raw samples.
type loopStats struct {
	lat             map[string]samples
	ok              int
	tracedOK        int
	tracedTime      time.Duration
	plainOK         int
	plainTime       time.Duration
	cached, answers int
	evaluations     samples
	elapsed         time.Duration
}

// closedLoop runs serveCallers callers over the sequence for d. In a traced
// run, alternate seconds are traced, and completions are counted per kind
// of second for the overhead.
func (env *serveEnv) closedLoop(d time.Duration, rep *report, tr *tracer) loopStats {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		st    = loopStats{lat: make(map[string]samples)}
		first = make(map[int][]int32) // fresh seeds request -> its seeds
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make(map[string]samples)
			var errs []error
			var tracedOK, plainOK int
			var seedsAnswers []seedsAnswer
			var seedsIdx []int
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				var o op
				var method, path string
				var body []byte
				si := -1
				if (i+1)%seedsEvery == 0 {
					si = (i / seedsEvery) % len(env.seeds)
					o = op{kind: opSeeds}
					method, path, body = http.MethodPost, "/v1/seeds?timeout_ms=30000", env.seedsBody(si)
				} else {
					o = env.seq[i%len(env.seq)]
					method, path, body = o.request()
				}
				sendAt := time.Now()
				resp, elapsed, err := env.srv.call(method, path, body)
				if err == nil && si < 0 {
					err = env.check(o, resp)
				}
				if err == nil && si >= 0 {
					var a seedsAnswer
					if err = json.Unmarshal(resp, &a); err == nil {
						seedsAnswers = append(seedsAnswers, a)
						seedsIdx = append(seedsIdx, si)
					}
				}
				if err != nil {
					errs = append(errs, err)
					continue
				}
				lat[o.kind] = append(lat[o.kind], millis(elapsed))
				if tr.enabled() && (sendAt.Sub(start)/time.Second)%2 == 0 {
					tr.record(o.kind, 0, tr.at(sendAt), tr.at(sendAt.Add(elapsed)))
					tracedOK++
				} else {
					plainOK++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for k, v := range lat {
				st.lat[k] = append(st.lat[k], v...)
				st.ok += len(v)
			}
			st.tracedOK += tracedOK
			st.plainOK += plainOK
			for _, err := range errs {
				rep.attempt(err)
			}
			for j, a := range seedsAnswers {
				st.answers++
				if a.Cached {
					st.cached++
				} else {
					st.evaluations = append(st.evaluations, float64(a.Evaluations))
				}
				key := seedsIdx[j]
				if rp := env.seeds[key].repeatOf; rp >= 0 {
					key = rp
				}
				switch prev, seen := first[key]; {
				case a.Partial:
					rep.fail(fmt.Errorf("seeds request %d answered partial", seedsIdx[j]))
				case !seen:
					first[key] = a.Seeds
				case !slices.Equal(prev, a.Seeds):
					rep.fail(fmt.Errorf("seeds request %d: repeat returned %v, first answer %v", seedsIdx[j], a.Seeds, prev))
				}
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	rep.attempted += st.ok
	// Even whole seconds are traced, odd ones are not.
	secs := int(d / time.Second)
	st.tracedTime = time.Duration((secs+1)/2) * time.Second
	st.plainTime = d - st.tracedTime
	return st
}

// checkPartition compares the server's served + shed + panics counters on
// /metrics with the number of API requests the benchmark sent.
func (s *server) checkPartition() error {
	body, err := s.get("/metrics")
	if err != nil {
		return err
	}
	total := 0.0
	for _, name := range []string{
		"inf2vec_http_requests_served_total", "inf2vec_http_requests_shed_total", "inf2vec_http_handler_panics_total",
	} {
		v, err := scrape(body, name)
		if err != nil {
			return err
		}
		total += v
	}
	if sent := s.sent.Load(); total != float64(sent) {
		return fmt.Errorf("/metrics counts %v served+shed+panics, benchmark sent %d API requests", total, sent)
	}
	return nil
}

// scrape reads an unlabeled sample from Prometheus text output.
func scrape(body []byte, name string) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

func runServeDigg(o options, rep *report, tr *tracer) error {
	// A traced run also traces set-up, where serve-digg trains its model.
	tel := &trainTelemetry{tr: tr}
	tr.on.Store(o.trace)
	var setups samples
	var env *serveEnv
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
		if env, err = setupServe(dir, o.seed, tel); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	tr.on.Store(false)
	defer env.srv.stop()
	rep.add("setup_s", "s", setups.median(), len(setups))
	rep.attempted += 300 // the last set-up's warm-up requests, all checked by status

	env.topk = make(map[int32][]eval.Ranked)
	for _, op := range env.seq {
		if op.kind == opTopK && env.topk[op.u] == nil {
			want, err := env.scorer.TopInfluenced(context.Background(), []int32{op.u}, eval.Max, 10)
			if err != nil {
				return err
			}
			env.topk[op.u] = want
		}
	}

	refs := hostRefs()
	tr.on.Store(o.trace)
	heap := startHeapSampler()
	st := env.closedLoop(time.Duration(o.seconds)*time.Second, rep, tr)
	addHeap(rep, heap)
	refs = append(refs, hostRefs()...)
	rep.attempt(env.srv.checkPartition())

	var all samples
	for _, lat := range st.lat {
		all = append(all, lat...)
	}
	rep.addQuantile("op_p50_ms", "ms", all, 0.5)
	rep.add("ops_per_s", "1/s", float64(st.ok)/st.elapsed.Seconds(), st.ok)
	// Each route alone; printed, not bounded.
	rep.addQuantile("score_p50_ms", "ms", st.lat[opScore], 0.5)
	rep.addQuantile("score_p99_ms", "ms", st.lat[opScore], 0.99)
	rep.addQuantile("activation_p50_ms", "ms", st.lat[opActivation], 0.5)
	rep.addQuantile("topk_p50_ms", "ms", st.lat[opTopK], 0.5)
	rep.addQuantile("topk_p99_ms", "ms", st.lat[opTopK], 0.99)
	rep.addQuantile("seeds_p50_ms", "ms", st.lat[opSeeds], 0.5)
	for _, k := range []string{opScore, opTopK} {
		if !st.lat[k].supports(0.99) {
			rep.note("%s p99 has fewer than ten samples above it (n=%d)", k, len(st.lat[k]))
		}
	}
	rep.note("seeds answers: %d (%d cached)", st.answers, st.cached)
	if len(st.evaluations) > 0 {
		rep.note("computed seeds answers spent %v evaluations at the median (n=%d)", st.evaluations.median(), len(st.evaluations))
	}
	m, err := heldOut(env.g, env.test, env.store, tr)
	if err != nil {
		return err
	}
	rep.add("auc", "fraction", m.AUC, 1)
	rep.add("map", "fraction", m.MAP, 1)
	addHostRef(rep, refs)
	if !o.trace {
		return nil
	}
	rep.add("serve.seeds_cache_hit_frac", "fraction", ratio(float64(st.cached), float64(st.answers)), st.answers)
	tracedRate := float64(st.tracedOK) / st.tracedTime.Seconds()
	plainRate := float64(st.plainOK) / st.plainTime.Seconds()
	if tracedRate > 0 && plainRate > 0 {
		addOverhead(rep, "ops_per_s (as 1/rps)", samples{1 / tracedRate}, samples{1 / plainRate})
	}
	addTrainLayers(rep, tr, tel)
	rep.addQuantile("eval.activation_s", "s", tr.stats("eval.ActivationPrediction", seconds).length, 0.5)
	httpResidual, err := env.layers(rep, tr)
	// A request's residual is what net/http, TCP and the client add over
	// the in-memory handler: http.residual_us in milliseconds.
	rep.add("residual_ms", "ms", httpResidual/1000, 1)
	return err
}

// discardWriter is a ResponseWriter that keeps nothing, so an in-memory
// handler call measures the handler alone.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// layers times each layer of a request alone on the workload's own inputs:
// vecmath.Dot → eval.Scorer → in-memory handler → loopback HTTP, then CELF.
// It returns http.residual_us.
func (env *serveEnv) layers(rep *report, tr *tracer) (float64, error) {
	var scores, acts, topks []op
	for _, o := range env.seq {
		switch o.kind {
		case opScore:
			scores = append(scores, o)
		case opActivation:
			acts = append(acts, o)
		case opTopK:
			topks = append(topks, o)
		}
	}
	scores, acts, topks = scores[:4096], acts[:2000], topks[:500]
	root := tr.open("layers", 0)
	defer tr.close(root)

	// Kernel and scorer: batches of 4096 calls, per-call ns, median batch.
	var dots, pairs samples
	var sink float64
	tr.timed("vecmath.Dot", root, func() {
		for b := 0; b < 50; b++ {
			start := time.Now()
			for _, o := range scores {
				sink += float64(vecmath.Dot(env.store.SourceVec(o.u), env.store.TargetVec(o.v)))
			}
			dots = append(dots, float64(time.Since(start).Nanoseconds())/float64(len(scores)))
		}
	})
	tr.timed("eval.Scorer.Pair", root, func() {
		for b := 0; b < 50; b++ {
			start := time.Now()
			for _, o := range scores {
				x, _ := env.scorer.Pair(o.u, o.v)
				sink += x
			}
			pairs = append(pairs, float64(time.Since(start).Nanoseconds())/float64(len(scores)))
		}
	})
	hostSink = sink
	rep.addQuantile("vecmath.dot_ns", "ns", dots, 0.5)
	rep.addQuantile("eval.pair_ns", "ns", pairs, 0.5)

	var actTimes, topkTimes samples
	tr.timed("eval.Scorer.Activation", root, func() {
		for _, o := range acts {
			start := time.Now()
			_, err := env.scorer.Activation(o.active, o.v, eval.Ave)
			actTimes = append(actTimes, micros(time.Since(start)))
			if err != nil {
				rep.fail(err)
			}
		}
	})
	buf := make([]eval.Ranked, 0, 10)
	tr.timed("eval.Scorer.TopInfluencedInto", root, func() {
		for _, o := range topks {
			start := time.Now()
			_, err := env.scorer.TopInfluencedInto(context.Background(), []int32{o.u}, eval.Max, 10, buf)
			topkTimes = append(topkTimes, micros(time.Since(start)))
			if err != nil {
				rep.fail(err)
			}
		}
	})
	rep.addQuantile("eval.activation_us", "us", actTimes, 0.5)
	rep.addQuantile("eval.topk_us", "us", topkTimes, 0.5)

	// In-memory handler: middleware, JSON and access log, no TCP.
	h := env.srv.srv.Handler()
	w := &discardWriter{h: make(http.Header)}
	handlerCall := func(o op) (time.Duration, error) {
		method, path, body := o.request()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		clear(w.h)
		w.status = http.StatusOK
		start := time.Now()
		h.ServeHTTP(w, req)
		elapsed := time.Since(start)
		if w.status/100 != 2 {
			return elapsed, fmt.Errorf("in-memory %s: status %d", path, w.status)
		}
		return elapsed, nil
	}
	var scoreHandler samples
	for _, c := range []struct {
		name string
		ops  []op
		t    *samples
	}{
		{"serve.score_us", scores[:2000], &scoreHandler},
		{"serve.activation_us", acts, new(samples)},
		{"serve.topk_us", topks, new(samples)},
	} {
		tr.timed("Server.Handler.ServeHTTP "+c.name, root, func() {
			for _, o := range c.ops {
				d, err := handlerCall(o)
				if err != nil {
					rep.fail(err)
				}
				*c.t = append(*c.t, micros(d))
			}
		})
		rep.addQuantile(c.name, "us", *c.t, 0.5)
	}
	for _, c := range []struct {
		name string
		o    op
	}{{"serve.score_allocs", scores[0]}, {"serve.topk_allocs", topks[0]}} {
		method, path, _ := c.o.request()
		req := httptest.NewRequest(method, path, nil)
		allocs := testing.AllocsPerRun(500, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
		rep.add(c.name, "count", allocs, 500)
	}

	// Loopback HTTP with a single caller: what net/http, TCP and the client
	// add over the in-memory handler.
	var loop samples
	var httpResidual float64
	tr.timed("http loopback /v1/score", root, func() {
		for _, o := range scores {
			_, d, err := env.srv.call(o.request())
			if err != nil {
				rep.fail(err)
				continue
			}
			loop = append(loop, micros(d))
		}
	})
	if len(loop) > 0 && len(scoreHandler) > 0 {
		httpResidual = residual(loop.median(), scoreHandler.median())
		rep.add("http.residual_us", "us", httpResidual, len(loop))
		rep.note("single-caller loopback /v1/score p50 %.2f us (n=%d)", loop.median(), len(loop))
	}

	// CELF alone on the first three computed requests' candidates and MC
	// runs, through the same logistic link the server uses (offset -2), with
	// a benchmark-chosen simulation seed.
	var evals, perEval samples
	for i := 0; len(evals) < 3 && i < len(env.seeds); i++ {
		req := env.seeds[i]
		if req.repeatOf >= 0 {
			continue
		}
		var last time.Time
		cfg := infmax.Config{
			Seeds: seedsK, MonteCarloRuns: seedsMCRuns, Seed: uint64(i) + 1, Candidates: req.candidates,
			Hooks: infmax.Hooks{BeforeEval: func(int, []int32) error {
				now := time.Now()
				if !last.IsZero() {
					perEval = append(perEval, micros(now.Sub(last)))
				}
				last = now
				return nil
			}},
		}
		prober := &infmax.ModelProber{G: env.g, Score: env.store.Score, Offset: -2}
		var res *infmax.Result
		var err error
		tr.timed("infmax.Greedy", root, func() {
			res, err = infmax.Greedy(context.Background(), env.g, prober, cfg)
		})
		if err != nil || res.Partial {
			rep.fail(fmt.Errorf("infmax.Greedy: %v (partial=%v)", err, res != nil && res.Partial))
			continue
		}
		evals = append(evals, float64(res.Evaluations))
	}
	rep.addQuantile("infmax.greedy_ms", "ms", tr.stats("infmax.Greedy", millis).length, 0.5)
	rep.addQuantile("infmax.evaluations", "count", evals, 0.5)
	rep.addQuantile("ic.eval_us", "us", perEval, 0.5)
	return httpResidual, nil
}
