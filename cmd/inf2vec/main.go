// Command inf2vec trains, evaluates and queries social influence embeddings
// from TSV files on disk.
//
// Subcommands:
//
//	inf2vec train -graph graph.tsv -log actions.tsv -model out.i2v [flags]
//	inf2vec eval  -graph graph.tsv -log actions.tsv -model out.i2v [-task activation|diffusion]
//	inf2vec score -model out.i2v -source 12 -top 10
//	inf2vec convert -in out.i2v -out out.q.i2v -precision int8
//
// train fits the model on a random 80% episode split (10% tune / 10% test
// are held out, matching the paper's protocol); eval replays the held-out
// test split; score prints the users most likely to be influenced by a
// source user; convert rewrites a model file at another precision (int8
// produces a format-v3 artifact, ~4x smaller, servable at either
// -model-precision).
//
// train supports fault-tolerant runs: -checkpoint periodically persists
// training state atomically, -resume continues from it, and SIGINT/SIGTERM
// cancel training cleanly — the best-so-far model (and, with -checkpoint, a
// final checkpoint) is saved before exiting.
//
// Observability: training progress is structured-logged to stderr
// (-log-format, -log-level), -telemetry-out streams one JSON training event
// per line (epoch losses, throughput, recoveries, checkpoints),
// -trace-out records the run as a span trace (root "train" with corpus_gen
// and per-epoch children), and -debug-addr exposes pprof, /metrics and
// /debug/traces on a separate listener. Result output (eval metrics, score
// rankings) stays on stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"inf2vec"
	"inf2vec/internal/embed"
	"inf2vec/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "score":
		err = cmdScore(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "version", "-version", "--version":
		fmt.Printf("inf2vec %s (%s)\n", obs.Version(), obs.GoVersion())
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "inf2vec:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: inf2vec <train|eval|score|convert|version> [flags]
  train -graph G -log A -model OUT [-dim 50 -len 50 -alpha 0.1 -lr 0.005 -iters 10 -neg 5 -workers 1 -corpus-workers 0 -seed 1]
        [-checkpoint CKPT [-checkpoint-every N] [-resume]]
        [-telemetry-out events.jsonl] [-trace-out traces.jsonl] [-log-format text|json] [-log-level info] [-debug-addr :0]
  eval  -graph G -log A -model M [-task activation|diffusion] [-agg ave|sum|max|latest] [-seed 1]
  score -model M -source U [-top 10] [-agg max]
  convert -in M -out OUT [-precision fp32|int8]`)
}

// loadData reads the graph and the full action log, sized to the graph.
func loadData(graphPath, logPath string) (*inf2vec.Graph, *inf2vec.ActionLog, error) {
	g, err := inf2vec.ReadGraphFile(graphPath)
	if err != nil {
		return nil, nil, err
	}
	log, err := inf2vec.ReadActionLogFile(logPath, g.NumNodes())
	if err != nil {
		return nil, nil, err
	}
	return g, log, nil
}

func parseAgg(name string) (inf2vec.Aggregator, error) {
	return inf2vec.ParseAggregator(name)
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list TSV (required)")
	logPath := fs.String("log", "", "action-log TSV (required)")
	modelPath := fs.String("model", "model.i2v", "output model file")
	dim := fs.Int("dim", 50, "embedding dimension K")
	ctxLen := fs.Int("len", 50, "context length threshold L")
	alpha := fs.Float64("alpha", 0.1, "component weight (local context fraction)")
	lr := fs.Float64("lr", 0.005, "SGD learning rate")
	decay := fs.Bool("decay", false, "linearly decay the learning rate")
	iters := fs.Int("iters", 10, "SGD passes")
	neg := fs.Int("neg", 5, "negative samples per positive")
	workers := fs.Int("workers", 1, "hogwild workers")
	corpusWorkers := fs.Int("corpus-workers", 0, "corpus-generation workers (0 = GOMAXPROCS; any value yields the same corpus)")
	seed := fs.Uint64("seed", 1, "random seed")
	ckptPath := fs.String("checkpoint", "", "checkpoint file for fault-tolerant training")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint every N epochs (default 1 when -checkpoint is set)")
	resume := fs.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
	telemetryOut := fs.String("telemetry-out", "", "append one JSON training event per line to this file")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	debugAddr := fs.String("debug-addr", "", "serve pprof and /metrics on this address (e.g. localhost:6060)")
	traceFlags := obs.RegisterTraceFlags(fs, 1) // one-shot run: keep every trace
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *logPath == "" {
		return fmt.Errorf("train: -graph and -log are required")
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("train: -resume requires -checkpoint")
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	traceCfg, closeTrace, err := traceFlags.Config()
	if err != nil {
		return err
	}
	defer closeTrace()
	tracer := obs.NewTracer(traceCfg)
	if *debugAddr != "" {
		addr, err := obs.StartDebugServer(*debugAddr, nil, tracer)
		if err != nil {
			return err
		}
		logger.Info("debug server listening", "addr", addr)
	}
	var sink *obs.JSONLWriter
	if *telemetryOut != "" {
		sink, err = obs.CreateJSONL(*telemetryOut)
		if err != nil {
			return err
		}
		defer sink.Close()
	}
	g, log, err := loadData(*graphPath, *logPath)
	if err != nil {
		return err
	}
	train, _, _, err := log.Split(*seed, 0.8, 0.1)
	if err != nil {
		return err
	}
	logger.Info("training", "version", obs.Version(),
		"episodes", train.NumEpisodes(), "actions", train.NumActions(),
		"users", g.NumNodes(), "workers", *workers, "iters", *iters)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal starts the graceful drain, unregister the
		// handler so a second Ctrl-C kills the process immediately.
		<-ctx.Done()
		stop()
	}()
	cfg := inf2vec.Config{
		Dim:               *dim,
		ContextLength:     *ctxLen,
		Alpha:             *alpha,
		LearningRate:      *lr,
		DecayLearningRate: *decay,
		Iterations:        *iters,
		NegativeSamples:   *neg,
		Workers:           *workers,
		CorpusWorkers:     *corpusWorkers,
		Seed:              *seed,
		CheckpointPath:    *ckptPath,
		CheckpointEvery:   *ckptEvery,
		Telemetry:         trainTelemetry(logger, sink),
	}
	// The root span covers the whole fit; training hangs its corpus_gen
	// and per-epoch child spans off it.
	tctx, root := tracer.StartRoot(ctx, "train")
	root.SetAttr("episodes", train.NumEpisodes())
	root.SetAttr("iters", *iters)
	root.SetAttr("workers", *workers)
	var model *inf2vec.Model
	var stats *inf2vec.TrainStats
	if *resume {
		model, stats, err = inf2vec.Resume(tctx, g, train, cfg)
	} else {
		model, stats, err = inf2vec.TrainWithStatsContext(tctx, g, train, cfg)
	}
	switch {
	case err != nil:
		root.EndWith("error")
		return err
	case stats.Canceled:
		root.EndWith("canceled")
	default:
		root.End()
	}
	if *resume {
		logger.Info("resumed from checkpoint", "checkpoint", *ckptPath, "epoch", stats.StartEpoch)
	}
	stop()
	if err := model.SaveFile(*modelPath); err != nil {
		return err
	}
	if stats.Canceled {
		logger.Warn("interrupted; saved best-so-far model",
			"epochs", len(stats.EpochLoss), "model", *modelPath)
		if *ckptPath != "" {
			// Replay the flags the user actually set: the checkpoint only
			// accepts a resume under the same hyperparameters.
			hint := []string{"inf2vec", "train"}
			fs.Visit(func(f *flag.Flag) {
				if f.Name != "resume" {
					hint = append(hint, "-"+f.Name, f.Value.String())
				}
			})
			logger.Info("resume hint", "cmd", strings.Join(hint, " ")+" -resume")
		}
		return nil
	}
	logger.Info("saved model", "users", model.NumUsers(), "dim", model.Dim(), "model", *modelPath)
	return nil
}

// trainTelemetry fans training events out to the structured log and, when
// set, the JSONL sink.
func trainTelemetry(logger *slog.Logger, sink *obs.JSONLWriter) func(inf2vec.TrainEvent) {
	return func(e inf2vec.TrainEvent) {
		if sink != nil {
			if err := sink.Write(e); err != nil {
				logger.Error("writing telemetry event", "err", err)
			}
		}
		switch e.Kind {
		case inf2vec.EventEpochEnd:
			logger.Info("epoch", "epoch", e.Epoch, "loss", e.Loss,
				"seconds", e.DurationSeconds, "examples_per_sec", e.ExamplesPerSec, "lr", e.LearningRate)
		case inf2vec.EventDivergenceRecovery:
			logger.Warn("recovered from divergence",
				"epoch", e.Epoch, "lr_scale", e.LRScale, "reinit", e.Reinit)
		case inf2vec.EventCheckpointWritten:
			logger.Debug("checkpoint written", "epoch", e.Epoch, "checkpoint", e.CheckpointPath)
		}
	}
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list TSV (required)")
	logPath := fs.String("log", "", "action-log TSV (required)")
	modelPath := fs.String("model", "", "trained model file (required)")
	task := fs.String("task", "activation", "activation or diffusion")
	aggName := fs.String("agg", "ave", "aggregator: ave, sum, max, latest")
	seed := fs.Uint64("seed", 1, "split seed (must match training)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *logPath == "" || *modelPath == "" {
		return fmt.Errorf("eval: -graph, -log and -model are required")
	}
	agg, err := parseAgg(*aggName)
	if err != nil {
		return err
	}
	g, log, err := loadData(*graphPath, *logPath)
	if err != nil {
		return err
	}
	_, _, test, err := log.Split(*seed, 0.8, 0.1)
	if err != nil {
		return err
	}
	model, err := inf2vec.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}
	var metrics inf2vec.Metrics
	switch *task {
	case "activation":
		metrics, err = model.EvaluateActivation(g, test, agg)
	case "diffusion":
		metrics, err = model.EvaluateDiffusion(g, test, agg, 0.05)
	default:
		return fmt.Errorf("unknown task %q", *task)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s prediction on %d test episodes (agg=%s):\n  %s\n",
		*task, test.NumEpisodes(), agg, metrics)
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "model file to read (any supported version; required)")
	out := fs.String("out", "", "output model file (required)")
	precName := fs.String("precision", "int8", "output precision: fp32 (format v2) or int8 (format v3, ~4x smaller)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -in and -out are required")
	}
	prec, err := embed.ParsePrecision(*precName)
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	store, err := embed.LoadFile(*in)
	if err != nil {
		return err
	}
	if err := store.SaveFilePrecision(*out, prec); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d users, dim %d, precision %s\n",
		*out, store.NumUsers(), store.Dim(), prec)
	return nil
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	modelPath := fs.String("model", "", "trained model file (required)")
	source := fs.Int("source", -1, "source user ID (required)")
	top := fs.Int("top", 10, "list length")
	aggName := fs.String("agg", "max", "aggregator: ave, sum, max, latest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *source < 0 {
		return fmt.Errorf("score: -model and -source are required")
	}
	agg, err := parseAgg(*aggName)
	if err != nil {
		return err
	}
	model, err := inf2vec.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}
	if int32(*source) >= model.NumUsers() {
		return fmt.Errorf("source %d outside universe [0,%d)", *source, model.NumUsers())
	}
	fmt.Printf("users most likely influenced by user %d:\n", *source)
	for i, r := range model.RankInfluenced([]int32{int32(*source)}, agg, *top) {
		fmt.Printf("  %2d. user %-6d score %.4f\n", i+1, r.User, r.Score)
	}
	return nil
}
