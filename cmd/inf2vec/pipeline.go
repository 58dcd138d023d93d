package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"inf2vec"
	"inf2vec/internal/core"
	"inf2vec/internal/obs"
	"inf2vec/internal/pipeline"
	"inf2vec/internal/serve"
)

// cmdPipeline runs the crash-safe streaming loop: it tails an append-only
// action-log TSV, incrementally retrains the influence embedding
// warm-started from the last published model, atomically publishes the
// result, and signals the serving layer to hot-reload.
//
// Usage:
//
//	inf2vec pipeline -graph graph.tsv -log actions.tsv -model model.i2v
//	                 [-cursor actions.tsv.offset] [-checkpoint model.i2v.ckpt]
//	                 [-dim 50 -len 50 -alpha 0.1 -lr 0.005 -decay -iters 10 -neg 5
//	                  -corpus-workers 0 -seed 1]
//	                 [-poll 2s] [-once]
//	                 [-serve-addr :8080 | -notify-pid PID]
//	                 [-log-format text|json] [-log-level info] [-debug-addr :0]
//	                 [-trace-out traces.jsonl] [-trace-slow-ms 100] [-trace-sample 0.01]
//
// The process may be killed at any instant — including kill -9 — and
// restarted: the durable cursor, the publish intent and the training
// checkpoint written beside the model recover the exact state, no action is
// double-counted or dropped, and the model file on disk is always a
// complete model (the previous one or the new one, never torn).
//
// With -serve-addr the query API runs in-process and every publish
// hot-reloads it directly. With -notify-pid each publish sends SIGHUP to an
// external serve process instead. With neither, publishes are silent (a
// sidecar can watch the model file). -once drains the current backlog and
// exits, for cron-style operation. The first SIGINT or SIGTERM drains the
// loop; a second one kills the process. With -serve-addr the in-process
// server drains too, and a second signal while it drains aborts its
// in-flight requests instead.
func cmdPipeline(args []string) (err error) {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "edge-list TSV (required)")
	logPath := fs.String("log", "", "append-only action-log TSV to tail (required)")
	modelPath := fs.String("model", "", "published model file (required)")
	cursorPath := fs.String("cursor", "", "durable resume cursor (default <log>.offset)")
	ckptPath := fs.String("checkpoint", "", "mid-round training checkpoint (default <model>.ckpt)")
	dim := fs.Int("dim", 50, "embedding dimension K")
	ctxLen := fs.Int("len", 50, "context length threshold L")
	alpha := fs.Float64("alpha", 0.1, "component weight (local context fraction)")
	lr := fs.Float64("lr", 0.005, "SGD learning rate")
	decay := fs.Bool("decay", false, "linearly decay the learning rate")
	iters := fs.Int("iters", 10, "SGD passes per retraining round")
	neg := fs.Int("neg", 5, "negative samples per positive")
	corpusWorkers := fs.Int("corpus-workers", 0, "corpus-generation workers (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 1, "random seed; keep fixed across restarts for incremental reuse")
	poll := fs.Duration("poll", 2*time.Second, "how often to look for new actions")
	once := fs.Bool("once", false, "drain the current backlog, publish, and exit")
	trainTimeout := fs.Duration("train-timeout", 0, "per-attempt training deadline (0 = unbounded; progress checkpoints either way)")
	serveAddr := fs.String("serve-addr", "", "also serve the query API in-process on this address; publishes hot-reload it")
	notifyPID := fs.Int("notify-pid", 0, "send SIGHUP to this pid after each publish (external serve process)")
	newLogger := logFlags(fs, "text")
	debugAddr := fs.String("debug-addr", "", "serve pprof and /metrics on this address (e.g. localhost:6060)")
	traceFlags := obs.RegisterTraceFlags(fs, 0.01)
	version := fs.Bool("version", false, "print version and exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		printVersion()
		return nil
	}
	if *graphPath == "" || *logPath == "" || *modelPath == "" {
		return fmt.Errorf("-graph, -log and -model are required")
	}
	if *serveAddr != "" && *notifyPID != 0 {
		return fmt.Errorf("-serve-addr and -notify-pid are mutually exclusive")
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
	g, err := inf2vec.ReadGraphFile(*graphPath)
	if err != nil {
		return err
	}
	// Touch the log so a tail of a not-yet-created file polls instead of
	// erroring (the producer may start later).
	if f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
		f.Close()
	}

	cfg := pipeline.Config{
		Graph:          g,
		LogPath:        *logPath,
		CursorPath:     *cursorPath,
		ModelPath:      *modelPath,
		CheckpointPath: *ckptPath,
		Train: core.Config{
			Dim:               *dim,
			ContextLength:     *ctxLen,
			Alpha:             *alpha,
			LearningRate:      *lr,
			DecayLearningRate: *decay,
			Iterations:        *iters,
			NegativeSamples:   *neg,
			CorpusWorkers:     *corpusWorkers,
			Seed:              *seed,
		},
		PollInterval: *poll,
		TrainTimeout: *trainTimeout,
		Logger:       logger,
		Tracer:       obs.NewTracer(traceCfg),
	}
	if *notifyPID != 0 {
		pid := *notifyPID
		cfg.Notify = func(context.Context) error {
			return syscall.Kill(pid, syscall.SIGHUP)
		}
	}

	ctx, stop := signalContext()
	defer stop()

	var srv *serve.Server
	if *serveAddr != "" {
		// The in-process server needs a model to start; if none is published
		// yet, bootstrap one round first (requires a non-empty backlog).
		if _, err := os.Stat(*modelPath); errors.Is(err, os.ErrNotExist) {
			logger.Info("no published model yet; bootstrapping one round before serving")
			boot, err := pipeline.New(cfg)
			if err != nil {
				return err
			}
			published, err := boot.Step(ctx)
			if err != nil {
				return fmt.Errorf("bootstrap round: %w", err)
			}
			if !published {
				return fmt.Errorf("cannot start -serve-addr: %s does not exist and the action log is empty", *modelPath)
			}
		}
		srv, err = serve.New(serve.Config{
			Addr:      *serveAddr,
			ModelPath: *modelPath,
			Logger:    logger,
			Trace:     traceCfg,
		})
		if err != nil {
			return err
		}
		cfg.Notify = func(context.Context) error { return srv.Reload() }
		cfg.Registry = srv.Metrics() // pipeline_* series on the server's /metrics
		cfg.Tracer = srv.Tracer()    // one trace ring for requests and rounds
	} else {
		cfg.Registry = obs.NewRegistry()
	}

	p, err := pipeline.New(cfg)
	if err != nil {
		return err
	}
	if err := startDebug(logger, *debugAddr, cfg.Registry, cfg.Tracer); err != nil {
		return err
	}

	if *once {
		for {
			published, err := p.Step(ctx)
			if err != nil {
				return err
			}
			if !published {
				return nil
			}
		}
	}

	if srv != nil {
		errCh := make(chan error, 1)
		go func() { errCh <- srv.Run(ctx) }()
		pipeErr := p.Run(ctx)
		stop() // a pipeline crash also drains the server
		if serveErr := <-errCh; pipeErr == nil {
			pipeErr = serveErr
		}
		return pipeErr
	}
	return p.Run(ctx)
}
