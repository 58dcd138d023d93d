package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"inf2vec/internal/obs"
	"inf2vec/internal/serve"
)

// cmdServe exposes a trained influence-embedding model as a fault-tolerant
// JSON HTTP API.
//
// Usage:
//
//	inf2vec serve -model model.i2v [-addr :8080] [-timeout 2s] [-max-timeout 30s]
//	              [-model-precision fp32|int8]
//	              [-max-inflight 256] [-drain-timeout 10s]
//	              [-topk-index exact|ivf] [-topk-nprobe 0] [-topk-shadow-every 256]
//	              [-graph graph.edges] [-seeds-max-inflight 2] [-seeds-cache 128]
//	              [-seeds-offset -2]
//
// Endpoints:
//
//	GET  /v1/score?source=U&target=V                 pair influence score x(u,v)
//	POST /v1/activation  {"active":[..],"candidate":V,"agg":"ave"}
//	GET  /v1/topk?source=U&k=10&agg=max              top-k most-influenced users
//	POST /v1/seeds  {"k":K,"budget":B,...}           anytime CELF seed selection
//	                                                 (requires -graph)
//	GET  /healthz   GET /readyz   GET /debug/statz   GET /metrics
//
// /v1/topk has two serving modes (-topk-index): "exact" scans the whole
// universe per request; "ivf" serves from a sharded cluster-pruned ANN index
// built at model load (and rebuilt on SIGHUP) whose surviving candidates are
// exactly rescored, so returned scores and tie-breaks match exact mode.
// -topk-nprobe widens the per-shard cluster sweep (recall vs. latency), and
// one in every -topk-shadow-every answers is shadow-compared against the
// exact scan to feed the inf2vec_topk_recall_at_k gauge.
//
// -model-precision selects the in-memory model representation: "fp32"
// (default) serves full float32 rows; "int8" holds per-row quantized codes
// with one float32 scale per row — roughly a quarter of the embedding
// memory — and /debug/statz reports the resident model bytes and the
// measured quantization error. Either precision loads both fp32 (v1/v2) and
// int8-quantized (v3) model files.
//
// Seed selection is the server's most expensive workload, so it runs behind
// its own small concurrency limit (-seeds-max-inflight) with singleflight
// collapsing and an LRU result cache; under a deadline or evaluation budget
// it degrades to a best-so-far partial answer instead of failing.
//
// -debug-addr starts a second listener with net/http/pprof profiles, a
// /metrics mirror and /debug/traces, kept off the public address. Tracing is
// tuned with -trace-sample (default 1% plus every slow request),
// -trace-slow-ms and -trace-ring, and -trace-out streams kept traces to a
// JSONL file. -version prints build info.
//
// Operational signals:
//
//	SIGHUP        hot-reload the model file; a corrupt or torn file is
//	              rejected and the old model keeps serving
//	SIGINT/SIGTERM graceful drain: stop accepting, flip /readyz to 503,
//	              finish in-flight requests up to -drain-timeout; a second
//	              signal aborts immediately
func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	model := fs.String("model", "", "trained model file (required); SIGHUP re-reads it")
	modelPrecision := fs.String("model-precision", "fp32", "in-memory model representation: fp32 (exact) or int8 (per-row quantized, ~4x less embedding memory)")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 2*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "cap for the per-request ?timeout_ms= override")
	maxInFlight := fs.Int("max-inflight", 256, "concurrent API requests before load shedding (429)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful drain bound on SIGINT/SIGTERM")
	topkIndex := fs.String("topk-index", serve.TopKIndexExact, "top-k serving mode: exact (full scan) or ivf (sharded ANN index with exact rescore)")
	topkNProbe := fs.Int("topk-nprobe", 0, "clusters probed per index shard in ivf mode; 0 uses the index default")
	topkShadowEvery := fs.Int("topk-shadow-every", 0, "shadow-compare one in N ivf answers against the exact scan; 0 uses the default (256), negative disables")
	graphPath := fs.String("graph", "", "diffusion graph edge list; enables POST /v1/seeds")
	seedsMaxInFlight := fs.Int("seeds-max-inflight", 2, "concurrent seed selections before shedding (429)")
	seedsCache := fs.Int("seeds-cache", 128, "LRU capacity for finished seed selections")
	seedsOffset := fs.Float64("seeds-offset", -2, "logistic-link offset mapping model scores to IC edge probabilities")
	debugAddr := fs.String("debug-addr", "", "serve pprof and /metrics on this second address (e.g. localhost:6060)")
	traceFlags := obs.RegisterTraceFlags(fs, 0.01)
	newLogger := logFlags(fs, "json")
	version := fs.Bool("version", false, "print version and exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		printVersion()
		return nil
	}
	if *model == "" {
		return fmt.Errorf("-model is required")
	}
	logger, err := newLogger()
	if err != nil {
		return err
	}
	traceCfg, closeTrace, err := traceFlags.Config()
	if err != nil {
		return err
	}
	defer closeInto(&err, closeTrace)
	s, err := serve.New(serve.Config{
		Addr:           *addr,
		ModelPath:      *model,
		ModelPrecision: *modelPrecision,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxInFlight:    *maxInFlight,
		DrainTimeout:   *drainTimeout,
		Logger:         logger,
		Trace:          traceCfg,

		TopKIndex:       *topkIndex,
		TopKNProbe:      *topkNProbe,
		TopKShadowEvery: *topkShadowEvery,

		GraphPath:        *graphPath,
		SeedsMaxInFlight: *seedsMaxInFlight,
		SeedsCacheSize:   *seedsCache,
		SeedsOffset:      *seedsOffset,
	})
	if err != nil {
		return err
	}
	if err := startDebug(logger, *debugAddr, s.Metrics(), s.Tracer()); err != nil {
		return err
	}
	return s.Run(context.Background())
}
