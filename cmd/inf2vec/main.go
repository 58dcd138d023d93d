// Command inf2vec is the one binary of the repository: it generates data,
// observes it, trains, evaluates and queries social influence embeddings,
// reproduces the paper's experiments, serves a model over HTTP and runs the
// streaming retrain pipeline.
//
// Subcommands:
//
//	inf2vec datagen -preset digg -seed 1 -out ./data/digg
//	inf2vec stats -graph graph.tsv -log actions.tsv
//	inf2vec train -graph graph.tsv -log actions.tsv -model out.i2v [flags]
//	inf2vec eval  -graph graph.tsv -log actions.tsv -model out.i2v [-task activation|diffusion]
//	inf2vec score -model out.i2v -source 12 -top 10
//	inf2vec convert -in out.i2v -out out.q.i2v -precision int8
//	inf2vec visualize -graph graph.tsv -log actions.tsv -model out.i2v -out layout.svg
//	inf2vec experiments [-run table2,fig9] [-quick]
//	inf2vec serve -model out.i2v [-addr :8080]
//	inf2vec pipeline -graph graph.tsv -log actions.tsv -model out.i2v [-once]
//	inf2vec version
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
//
// Every subcommand exits 0 on success and on -h, 2 for a rejected command
// line, and 1 on any other failure, reported as "inf2vec <subcommand>: ...".
// train, experiments and pipeline drain on the first SIGINT or SIGTERM; a
// second one kills the process.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"inf2vec"
	"inf2vec/internal/embed"
	"inf2vec/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "datagen":
		err = cmdDatagen(args)
	case "stats":
		err = cmdStats(args)
	case "train":
		err = cmdTrain(args)
	case "eval":
		err = cmdEval(args)
	case "score":
		err = cmdScore(args)
	case "convert":
		err = cmdConvert(args)
	case "visualize":
		err = cmdVisualize(args)
	case "experiments":
		err = cmdExperiments(args)
	case "serve":
		err = cmdServe(args)
	case "pipeline":
		err = cmdPipeline(args)
	case "version", "-version", "--version":
		printVersion()
	default:
		usage()
		os.Exit(2)
	}
	os.Exit(exitCode(cmd, err))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: inf2vec <subcommand> [flags]; inf2vec <subcommand> -h lists the flags
subcommands: datagen stats train eval score convert visualize experiments serve pipeline version`)
}

func parseAgg(name string) (inf2vec.Aggregator, error) {
	return inf2vec.ParseAggregator(name)
}

func cmdTrain(args []string) (err error) {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
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
	corpusWorkers := fs.Int("corpus-workers", 0, "corpus-generation workers (0 = GOMAXPROCS; any value yields the same corpus)")
	seed := fs.Uint64("seed", 1, "random seed")
	ckptPath := fs.String("checkpoint", "", "checkpoint file for fault-tolerant training")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint every N epochs (default 1 when -checkpoint is set)")
	resume := fs.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
	telemetryOut := fs.String("telemetry-out", "", "append one JSON training event per line to this file")
	newLogger := logFlags(fs, "text")
	debugAddr := fs.String("debug-addr", "", "serve pprof and /metrics on this address (e.g. localhost:6060)")
	traceFlags := obs.RegisterTraceFlags(fs, 1) // one-shot run: keep every trace
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *graphPath == "" || *logPath == "" {
		return fmt.Errorf("-graph and -log are required")
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
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
	tracer := obs.NewTracer(traceCfg)
	if err := startDebug(logger, *debugAddr, nil, tracer); err != nil {
		return err
	}
	sink, closeSink, err := telemetrySink(*telemetryOut, func(err error) {
		logger.Error("writing telemetry event", "err", err)
	})
	if err != nil {
		return err
	}
	defer closeInto(&err, closeSink)
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
		"users", g.NumNodes(), "iters", *iters)

	ctx, stop := signalContext()
	defer stop()
	cfg := inf2vec.Config{
		Dim:               *dim,
		ContextLength:     *ctxLen,
		Alpha:             *alpha,
		LearningRate:      *lr,
		DecayLearningRate: *decay,
		Iterations:        *iters,
		NegativeSamples:   *neg,
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
func trainTelemetry(logger *slog.Logger, sink func(inf2vec.TrainEvent)) func(inf2vec.TrainEvent) {
	return func(e inf2vec.TrainEvent) {
		if sink != nil {
			sink(e)
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
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "edge-list TSV (required)")
	logPath := fs.String("log", "", "action-log TSV (required)")
	modelPath := fs.String("model", "", "trained model file (required)")
	task := fs.String("task", "activation", "activation or diffusion")
	aggName := fs.String("agg", "ave", "aggregator: ave, sum, max, latest")
	seed := fs.Uint64("seed", 1, "split seed (must match training)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *graphPath == "" || *logPath == "" || *modelPath == "" {
		return fmt.Errorf("-graph, -log and -model are required")
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
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "model file to read (any supported version; required)")
	out := fs.String("out", "", "output model file (required)")
	precName := fs.String("precision", "int8", "output precision: fp32 (format v2) or int8 (format v3, ~4x smaller)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	prec, err := embed.ParsePrecision(*precName)
	if err != nil {
		return err
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
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	modelPath := fs.String("model", "", "trained model file (required)")
	source := fs.Int("source", -1, "source user ID (required)")
	top := fs.Int("top", 10, "list length")
	aggName := fs.String("agg", "max", "aggregator: ave, sum, max, latest")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *modelPath == "" || *source < 0 {
		return fmt.Errorf("-model and -source are required")
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
