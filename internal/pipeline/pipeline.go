// Package pipeline closes the loop from an append-only action log to the
// serving layer: a supervised control loop tails new actions, incrementally
// retrains the influence embedding warm-started from the last published
// model, and atomically publishes the result, signaling the server's
// hot-reload path. Robustness is the design center — the daemon may be
// killed (including kill -9) at any instant and resume without
// double-counting or dropping actions, and the published model file is
// always either the previous complete model or the new complete one.
//
// # Crash-safety protocol
//
// Durable state is three files beside the model: the action log (append-only,
// owned by the producer), the cursor (resume offset + CRC of the model
// published for it), and a publish intent. Training always consumes the full
// newline-terminated log prefix [0, offset) — never deltas — so an offset can
// be re-derived and re-consumed idempotently; incremental cost is bounded by
// the corpus cache and the warm start, not by trusting partial state.
//
// A publish runs in two phases:
//
//  1. write intent {offset, newModelCRC}   (atomic+durable)
//  2. publish model file                   (atomic+durable rename)
//  3. commit cursor = intent               (atomic+durable)
//  4. notify the serving layer
//  5. remove intent
//
// On restart, an existing intent disambiguates exactly where the crash hit:
// if the model file's content CRC equals the intent's, phase 2 completed —
// the cursor is rolled forward (idempotent re-commit) and the notify is
// re-sent; otherwise phase 2 never happened — the intent is discarded and
// the round redone from the committed cursor, warm-started from the still-
// unchanged old model, reproducing the same new model bit for bit. An
// unreadable intent implies phase 1 itself was interrupted, which means
// phase 2 never started, so discarding it is safe.
//
// Mid-training crashes resume from the trainer's own checkpoint, whose
// fingerprint includes the round's log offset (Config.CorpusTag) and the
// warm-start content, so a checkpoint can never leak across rounds.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"sync/atomic"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/checkpoint"
	"inf2vec/internal/core"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/obs"
	"inf2vec/internal/rng"
	"inf2vec/internal/trainer"
)

// Hooks injects faults for the crash/fault test matrix. Production leaves it
// zero.
type Hooks struct {
	// Fail, when non-nil, is consulted at the start of every stage attempt
	// with the stage name; returning a non-nil error makes that attempt fail
	// (exercising the retry/backoff path).
	Fail func(point string) error
	// Crash, when non-nil, is consulted at the named crash points; returning
	// true simulates kill -9 at that instant: the step unwinds immediately
	// without running any cleanup, Step returns ErrCrashed, and the Pipeline
	// is dead — on-disk state is left exactly as a real kill would leave it.
	// Points: tail_read, corpus_gen, train_epoch, checkpoint, publish,
	// offset_write, notify.
	Crash func(point string) bool
}

// ErrCrashed is returned by Step when an injected crash point fired. The
// Pipeline instance is unusable afterwards; tests simulate a process restart
// by building a new one over the same paths.
var ErrCrashed = errors.New("pipeline: crashed at injected crash point")

// crashPanic unwinds an injected crash to the Step boundary.
type crashPanic struct{ point string }

// Config configures a Pipeline.
type Config struct {
	// Graph is the social graph; its node count fixes the user universe for
	// every round, so models keep a constant shape across retrains.
	Graph *graph.Graph
	// LogPath is the append-only action-log TSV to tail.
	LogPath string
	// CursorPath is the durable resume cursor. Default: LogPath + ".offset".
	CursorPath string
	// ModelPath is the published model file the serving layer reloads.
	ModelPath string
	// CheckpointPath is the mid-round training checkpoint. Default:
	// ModelPath + ".ckpt".
	CheckpointPath string
	// Train is the training configuration for each round. CorpusTag,
	// WarmStart, CorpusCache, CheckpointPath and Telemetry are managed by
	// the pipeline; Seed must stay fixed for the corpus cache to hit.
	Train core.Config
	// PollInterval is how often Run looks for new actions. Default 2s.
	PollInterval time.Duration
	// TailTimeout, TrainTimeout and PublishTimeout are per-attempt stage
	// deadlines. Defaults: 30s, unbounded, 30s. A training attempt cut off
	// by TrainTimeout checkpoints at the epoch boundary and the retry
	// resumes from it, so the deadline bounds attempt latency, not progress.
	TailTimeout    time.Duration
	TrainTimeout   time.Duration
	PublishTimeout time.Duration
	// MaxStageRetries bounds per-Step attempts of each stage beyond the
	// first. Default 4; negative disables retries.
	MaxStageRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts (with ±50% jitter). Defaults 100ms and 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Notify signals the serving layer after a successful publish (e.g.
	// serve.Server.Reload, or SIGHUP to a pid). Failed notifies are retried
	// every Step — and re-sent after a restart — until one succeeds. Nil
	// means nobody to notify.
	Notify func(ctx context.Context) error
	// Logger receives structured progress and failure logs. Default: slog
	// default logger.
	Logger *slog.Logger
	// Registry receives the pipeline_* metrics; nil registers them into a
	// private registry (still updated, not exported).
	Registry *obs.Registry
	// Tracer receives one trace per Step (root span "pipeline_step" with
	// round/stage/epoch children). Nil disables pipeline tracing. The
	// pipeline daemon shares the serving layer's tracer so pipeline and
	// request traces land in one ring.
	Tracer *obs.Tracer
	// Hooks injects faults for tests.
	Hooks Hooks
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Graph == nil {
		return cfg, errors.New("pipeline: Graph is required")
	}
	if cfg.LogPath == "" || cfg.ModelPath == "" {
		return cfg, errors.New("pipeline: LogPath and ModelPath are required")
	}
	if cfg.CursorPath == "" {
		cfg.CursorPath = cfg.LogPath + ".offset"
	}
	if cfg.CheckpointPath == "" {
		cfg.CheckpointPath = cfg.ModelPath + ".ckpt"
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Second
	}
	if cfg.TailTimeout <= 0 {
		cfg.TailTimeout = 30 * time.Second
	}
	if cfg.PublishTimeout <= 0 {
		cfg.PublishTimeout = 30 * time.Second
	}
	if cfg.MaxStageRetries == 0 {
		cfg.MaxStageRetries = 4
	}
	if cfg.MaxStageRetries < 0 {
		cfg.MaxStageRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return cfg, nil
}

// Pipeline is one tail → retrain → publish control loop. Not safe for
// concurrent use; Run (or sequential Step calls) is the intended driver.
type Pipeline struct {
	cfg        Config
	log        *slog.Logger
	intentPath string
	numUsers   int32

	// In-memory mirror of the consumed log prefix. actions holds every
	// action in [0, tailedTo); committed is the last durable cursor.
	actions   []actionlog.Action
	tailedTo  int64
	committed actionlog.Cursor

	// model is the last published store (warm start for the next round);
	// nil before the first publish.
	model *embed.Store
	cache *core.CorpusCache

	// needNotify persists a pending reload signal across Steps (and, via
	// the intent file, across restarts). forceRound forces a republish when
	// the model file on disk does not match the committed cursor.
	needNotify bool
	forceRound bool

	dead bool // an injected crash fired; the instance must not run again

	jitter *rng.RNG
	met    *metrics

	// pendingSinceNanos is the unix-nanos instant unpublished data was
	// first observed (0 = fully caught up); feeds pipeline_stale_seconds.
	pendingSinceNanos atomic.Int64
	lagObserved       time.Duration // last retrain lag, for benchmarks
}

type metrics struct {
	rounds        *obs.CounterVec // pipeline_rounds_total{result}
	stageRetries  *obs.CounterVec // pipeline_stage_retries_total{stage}
	stageFailures *obs.CounterVec // pipeline_stage_failures_total{stage}
	tailed        *obs.Counter    // pipeline_actions_tailed_total
	cacheHits     *obs.Counter    // pipeline_corpus_cache_hits_total
	cacheMisses   *obs.Counter    // pipeline_corpus_cache_misses_total
	lastPublish   *obs.Gauge      // pipeline_last_publish_timestamp_seconds
	retrainLag    *obs.Histogram  // pipeline_retrain_lag_seconds
}

func newMetrics(reg *obs.Registry, p *Pipeline) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &metrics{
		rounds: reg.Counter("pipeline_rounds_total",
			"Retraining rounds by result (published, failed).", "result"),
		stageRetries: reg.Counter("pipeline_stage_retries_total",
			"Stage attempt retries, by stage.", "stage"),
		stageFailures: reg.Counter("pipeline_stage_failures_total",
			"Stages that exhausted their retry budget, by stage.", "stage"),
		tailed: reg.Counter("pipeline_actions_tailed_total",
			"Actions consumed from the log.").With(),
		cacheHits: reg.Counter("pipeline_corpus_cache_hits_total",
			"Episodes whose influence contexts were reused from the incremental corpus cache.").With(),
		cacheMisses: reg.Counter("pipeline_corpus_cache_misses_total",
			"Episodes whose influence contexts had to be (re)generated.").With(),
		retrainLag: reg.Histogram("pipeline_retrain_lag_seconds",
			"Seconds from first observing unpublished actions to publishing a model containing them.",
			[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}).With(),
	}
	m.lastPublish = reg.Gauge("pipeline_last_publish_timestamp_seconds",
		"Unix time of the last successful model publish.").With()
	reg.GaugeFunc("pipeline_stale_seconds",
		"Seconds the oldest unpublished action has been waiting; 0 when fully caught up.",
		func() float64 {
			since := p.pendingSinceNanos.Load()
			if since == 0 {
				return 0
			}
			return time.Since(time.Unix(0, since)).Seconds()
		})
	return m
}

// New builds a Pipeline and recovers its durable state: cursor, publish
// intent, last published model, and the in-memory replay of the consumed
// log prefix.
func New(cfg Config) (*Pipeline, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:        cfg,
		log:        cfg.Logger,
		intentPath: cfg.CursorPath + ".intent",
		numUsers:   cfg.Graph.NumNodes(),
		cache:      core.NewCorpusCache(),
		jitter:     rng.New(cfg.Train.Seed ^ 0x9e3779b97f4a7c15),
	}
	p.met = newMetrics(cfg.Registry, p)
	if err := p.recover(); err != nil {
		return nil, err
	}
	return p, nil
}

// recover rebuilds the in-memory state from disk, applying the intent
// protocol described in the package comment.
func (p *Pipeline) recover() error {
	cur, err := actionlog.LoadCursor(p.cfg.CursorPath)
	switch {
	case err == nil:
	case errors.Is(err, fs.ErrNotExist):
		cur = actionlog.Cursor{}
	case errors.Is(err, actionlog.ErrBadCursor):
		// A corrupt cursor cannot be trusted, but the protocol never needed
		// to trust it: retraining the full prefix from offset zero republishes
		// a complete, correct model.
		p.log.Warn("corrupt cursor; rebuilding from offset 0", "path", p.cfg.CursorPath, "err", err)
		cur = actionlog.Cursor{}
	default:
		return err
	}

	diskModel, modelCRC, modelErr := loadModelCRC(p.cfg.ModelPath)

	intent, err := actionlog.LoadCursor(p.intentPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// No publish was in flight.
	case err == nil:
		if modelErr == nil && modelCRC == intent.ModelCRC {
			// The model publish completed before the crash: roll the commit
			// forward (idempotent) and re-send the reload signal. The intent
			// stays on disk until the notify succeeds.
			if err := actionlog.SaveCursor(p.cfg.CursorPath, intent); err != nil {
				return fmt.Errorf("pipeline: rolling forward interrupted publish: %w", err)
			}
			cur = intent
			p.needNotify = true
			p.log.Info("rolled forward interrupted publish", "offset", intent.Offset, "crc", fmt.Sprintf("%08x", intent.ModelCRC))
		} else {
			// The model on disk is not the intended one, so the publish never
			// happened; the round is simply redone from the committed cursor.
			p.log.Info("discarding unfinished publish intent", "offset", intent.Offset)
			if err := os.Remove(p.intentPath); err != nil {
				return fmt.Errorf("pipeline: discarding intent: %w", err)
			}
		}
	case errors.Is(err, actionlog.ErrBadCursor):
		// The intent is written atomically before the model publish starts,
		// so an unreadable intent means the publish never started.
		p.log.Warn("discarding corrupt publish intent", "err", err)
		if err := os.Remove(p.intentPath); err != nil {
			return fmt.Errorf("pipeline: discarding intent: %w", err)
		}
	default:
		return err
	}

	switch {
	case modelErr == nil:
		p.model = diskModel
		if cur.Offset > 0 && cur.ModelCRC != modelCRC {
			p.log.Warn("model file does not match committed cursor; forcing a republish",
				"model_crc", fmt.Sprintf("%08x", modelCRC), "cursor_crc", fmt.Sprintf("%08x", cur.ModelCRC))
			p.forceRound = true
		}
	case errors.Is(modelErr, fs.ErrNotExist):
		if cur.Offset > 0 {
			p.log.Warn("model file missing despite committed cursor; forcing a republish")
			p.forceRound = true
		}
	default:
		return fmt.Errorf("pipeline: reading published model: %w", modelErr)
	}

	// Replay the consumed prefix into memory. The cursor always points at a
	// line boundary, so a short or failing replay means the log itself was
	// truncated or corrupted out from under us — not recoverable here.
	p.actions, p.tailedTo = nil, 0
	if cur.Offset > 0 {
		f, err := os.Open(p.cfg.LogPath)
		if err != nil {
			return fmt.Errorf("pipeline: replaying log prefix: %w", err)
		}
		acts, next, err := actionlog.Tail(io.LimitReader(f, cur.Offset), 0)
		f.Close()
		if err != nil {
			return fmt.Errorf("pipeline: replaying log prefix: %w", err)
		}
		if next != cur.Offset {
			return fmt.Errorf("pipeline: log prefix ends at %d, cursor says %d (log truncated?)", next, cur.Offset)
		}
		p.actions, p.tailedTo = acts, next
	}
	p.committed = cur
	return nil
}

// loadModelCRC loads a model file and its content CRC (the value Save wrote
// in the file's trailer). Loading validates the CRC, so a torn file reports
// an error rather than a bogus fingerprint.
func loadModelCRC(path string) (*embed.Store, uint32, error) {
	s, err := embed.LoadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, fs.ErrNotExist
		}
		return nil, 0, err
	}
	return s, s.Checksum(), nil
}

// crash fires an injected crash point.
func (p *Pipeline) crash(point string) {
	if p.cfg.Hooks.Crash != nil && p.cfg.Hooks.Crash(point) {
		panic(crashPanic{point})
	}
}

// Step runs one iteration of the control loop: tail whatever is new, and if
// anything is pending — new data, a forced republish, or an unsent reload
// signal — run the retrain/publish/notify sequence. It reports whether a
// model was published. A returned error other than ErrCrashed means the
// failing stage exhausted its retries; the pipeline remains healthy and the
// next Step retries from durable state.
func (p *Pipeline) Step(ctx context.Context) (published bool, err error) {
	if p.dead {
		return false, ErrCrashed
	}
	ctx, stepSpan := p.cfg.Tracer.StartRoot(ctx, "pipeline_step")
	defer func() {
		if r := recover(); r != nil {
			cp, ok := r.(crashPanic)
			if !ok {
				// Not an injected crash: close the root span and let the
				// panic keep unwinding.
				stepSpan.SetStatus("error")
				stepSpan.End()
				panic(r)
			}
			p.dead = true
			published = false
			err = fmt.Errorf("%w: %s", ErrCrashed, cp.point)
			stepSpan.SetStatus("crashed")
			stepSpan.SetAttr("crash_point", cp.point)
		} else if err != nil {
			stepSpan.SetStatus("error")
		}
		stepSpan.SetAttr("published", published)
		stepSpan.End()
	}()

	// Tail. Only newline-terminated lines are consumed; a half-appended
	// final line stays in the file for the next Step.
	var fresh []actionlog.Action
	var next int64
	err = p.runStage(ctx, "tail", p.cfg.TailTimeout, func(context.Context) error {
		p.crash("tail_read")
		acts, n, err := actionlog.TailTSV(p.cfg.LogPath, p.tailedTo)
		if err != nil {
			return err
		}
		fresh, next = acts, n
		return nil
	})
	if err != nil {
		return false, err
	}
	if next > p.tailedTo {
		p.actions = append(p.actions, fresh...)
		p.tailedTo = next
		p.met.tailed.Add(uint64(len(fresh)))
	}
	if p.tailedTo > p.committed.Offset && p.pendingSinceNanos.Load() == 0 {
		p.pendingSinceNanos.Store(time.Now().UnixNano())
	}

	if p.tailedTo > p.committed.Offset || p.forceRound {
		if err := p.round(ctx); err != nil {
			p.met.rounds.With("failed").Inc()
			return false, err
		}
		p.met.rounds.With("published").Inc()
		published = true
	}
	if p.needNotify {
		if err := p.runStage(ctx, "notify", p.cfg.PublishTimeout, func(nctx context.Context) error {
			p.crash("notify")
			if p.cfg.Notify == nil {
				return nil
			}
			return p.cfg.Notify(nctx)
		}); err != nil {
			return published, err
		}
		p.needNotify = false
		// The intent has served its restart-healing purpose only once the
		// reload signal is out; removing it is best-effort (a leftover is
		// re-processed idempotently).
		if err := os.Remove(p.intentPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			p.log.Warn("removing publish intent", "err", err)
		}
	}
	return published, nil
}

// round retrains on the full consumed prefix and publishes the result. It
// runs as a "round" child span of the step; the train and publish stage
// spans (and the trainer's corpus/epoch spans) nest beneath it, so one trace
// shows where a round's latency went.
func (p *Pipeline) round(ctx context.Context) (err error) {
	ctx, span := obs.StartSpan(ctx, "round")
	span.SetAttr("to_offset", p.tailedTo)
	span.SetAttr("actions", len(p.actions))
	completed := false
	defer func() {
		// An injected crash unwinds through here without being recovered;
		// the flag distinguishes that from a normal error return.
		if !completed {
			span.SetStatus("crashed")
		} else if err != nil {
			span.SetStatus("error")
		}
		span.End()
	}()
	err = p.doRound(ctx)
	completed = true
	return err
}

func (p *Pipeline) doRound(ctx context.Context) error {
	toOffset := p.tailedTo
	alog, err := actionlog.FromActions(p.numUsers, p.actions)
	if err != nil {
		return fmt.Errorf("pipeline: assembling action log: %w", err)
	}

	tcfg := p.cfg.Train
	tcfg.CorpusTag = uint64(toOffset)
	if tcfg.CorpusTag == 0 {
		// A forced republish with an empty log still needs a nonzero round
		// identity so the checkpoint cannot be confused with a non-streaming
		// run's.
		tcfg.CorpusTag = 1
	}
	tcfg.WarmStart = p.model
	tcfg.CorpusCache = p.cache
	tcfg.CheckpointPath = p.cfg.CheckpointPath
	if tcfg.CheckpointEvery <= 0 {
		tcfg.CheckpointEvery = 1
	}
	userTelemetry := tcfg.Telemetry
	tcfg.Telemetry = func(e trainer.Event) {
		// Crash points inside training map onto the trainer's telemetry
		// milestones; the hook fires between the durable action and the next
		// instruction, exactly where a real kill would land.
		switch e.Kind {
		case trainer.EventCorpusProgress:
			p.crash("corpus_gen")
		case trainer.EventEpochEnd:
			p.crash("train_epoch")
		case trainer.EventCheckpointWritten:
			p.crash("checkpoint")
		}
		if userTelemetry != nil {
			userTelemetry(e)
		}
	}

	var res *core.Result
	err = p.runStage(ctx, "train", p.cfg.TrainTimeout, func(sctx context.Context) error {
		// Training opens its corpus_gen and epoch spans under sctx's span,
		// so a retried attempt's spans nest under its own "train" span.
		r, terr := p.trainOnce(sctx, tcfg, alog)
		if terr != nil {
			return terr
		}
		if r.Canceled {
			// The stage deadline cut the attempt at an epoch boundary; the
			// checkpoint persists the progress and the retry resumes from it.
			return errors.New("training attempt hit the stage deadline")
		}
		res = r
		return nil
	})
	if err != nil {
		return err
	}
	hits, misses := p.cache.Stats()
	p.met.cacheHits.Add(uint64(hits))
	p.met.cacheMisses.Add(uint64(misses))

	store := res.Model.Store
	intent := actionlog.Cursor{Offset: toOffset, ModelCRC: store.Checksum()}
	err = p.runStage(ctx, "publish", p.cfg.PublishTimeout, func(context.Context) error {
		if err := actionlog.SaveCursor(p.intentPath, intent); err != nil {
			return err
		}
		p.crash("publish")
		if err := store.SaveFile(p.cfg.ModelPath); err != nil {
			return err
		}
		p.crash("offset_write")
		return actionlog.SaveCursor(p.cfg.CursorPath, intent)
	})
	if err != nil {
		return err
	}
	p.committed = intent
	p.model = store
	p.forceRound = false
	p.needNotify = true
	// The round's checkpoint is now superseded by the published model.
	if err := os.Remove(p.cfg.CheckpointPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		p.log.Warn("removing round checkpoint", "err", err)
	}

	now := time.Now()
	p.met.lastPublish.Set(float64(now.Unix()))
	if since := p.pendingSinceNanos.Load(); since != 0 {
		lag := now.Sub(time.Unix(0, since))
		p.lagObserved = lag
		p.met.retrainLag.Observe(lag.Seconds())
	}
	p.pendingSinceNanos.Store(0)
	p.log.Info("published model",
		"offset", toOffset, "crc", fmt.Sprintf("%08x", intent.ModelCRC),
		"actions", len(p.actions), "epochs", len(res.Epochs),
		"corpus_cache_hits", hits, "corpus_cache_misses", misses)
	return nil
}

// trainOnce runs one training attempt: resuming from the round's checkpoint
// when one exists and matches, otherwise training fresh. A checkpoint from a
// different round or starting point (mismatched fingerprint) or a corrupt
// file falls back to a fresh run rather than failing the stage.
func (p *Pipeline) trainOnce(ctx context.Context, tcfg core.Config, alog *actionlog.Log) (*core.Result, error) {
	if _, err := os.Stat(tcfg.CheckpointPath); err == nil {
		res, err := core.Resume(ctx, p.cfg.Graph, alog, tcfg)
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, core.ErrCheckpointMismatch), errors.Is(err, checkpoint.ErrBadFormat):
			p.log.Warn("checkpoint unusable; training fresh", "err", err)
		default:
			return nil, err
		}
	}
	return core.TrainContext(ctx, p.cfg.Graph, alog, tcfg)
}

// runStage runs one supervised stage: per-attempt deadline, fault-injection
// consult, and bounded exponential backoff with jitter between attempts.
func (p *Pipeline) runStage(ctx context.Context, stage string, timeout time.Duration, fn func(context.Context) error) error {
	var lastErr error
	attempts := p.cfg.MaxStageRetries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			p.met.stageRetries.With(stage).Inc()
			if err := p.sleep(ctx, p.backoff(attempt)); err != nil {
				return err
			}
		}
		err := p.attemptStage(ctx, stage, timeout, attempt, fn)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		p.log.Warn("stage attempt failed", "stage", stage, "attempt", attempt+1, "max", attempts, "err", err)
	}
	p.met.stageFailures.With(stage).Inc()
	return fmt.Errorf("pipeline: stage %s failed after %d attempts: %w", stage, attempts, lastErr)
}

// attemptStage runs one attempt of a stage under its own span (named after
// the stage, carrying the 1-based attempt number) and per-attempt deadline.
// Retried attempts therefore appear as sibling spans, making the backoff
// loop visible in the trace. The finished flag closes the span as "crashed"
// when an injected crash unwinds through without being recovered here.
func (p *Pipeline) attemptStage(ctx context.Context, stage string, timeout time.Duration, attempt int, fn func(context.Context) error) (err error) {
	sctx, span := obs.StartSpan(ctx, stage)
	span.SetAttr("attempt", attempt+1)
	finished := false
	defer func() {
		if !finished {
			span.SetStatus("crashed")
		} else if err != nil {
			span.SetStatus("error")
		}
		span.End()
	}()
	if err = p.failOnce(stage); err != nil {
		// Injected stage faults count as failed attempts, so they leave an
		// error span like any real failure would.
		finished = true
		return err
	}
	cancel := context.CancelFunc(nil)
	if timeout > 0 {
		sctx, cancel = context.WithTimeout(sctx, timeout)
	}
	err = fn(sctx)
	if cancel != nil {
		cancel()
	}
	finished = true
	return err
}

func (p *Pipeline) failOnce(stage string) error {
	if p.cfg.Hooks.Fail == nil {
		return nil
	}
	return p.cfg.Hooks.Fail(stage)
}

// backoff returns the pre-attempt delay: BackoffBase·2^(attempt-1), capped
// at BackoffMax, with ±50% jitter so restarting fleets do not thunder.
func (p *Pipeline) backoff(attempt int) time.Duration {
	d := p.cfg.BackoffBase << (attempt - 1)
	if d > p.cfg.BackoffMax || d <= 0 {
		d = p.cfg.BackoffMax
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(p.jitter.Uint64()%uint64(d))
	}
	return d
}

func (p *Pipeline) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// LastRetrainLag returns the retrain lag of the most recent publish (zero
// before the first), for benchmark reporting.
func (p *Pipeline) LastRetrainLag() time.Duration { return p.lagObserved }

// Committed returns the last durably committed cursor.
func (p *Pipeline) Committed() actionlog.Cursor { return p.committed }

// Run drives Step until ctx is canceled (returning nil on clean shutdown)
// or an injected crash fires (returning ErrCrashed). Stage-level failures
// are logged and retried next tick; a published model short-circuits the
// poll delay so a backlog drains at full speed.
func (p *Pipeline) Run(ctx context.Context) error {
	for {
		published, err := p.Step(ctx)
		switch {
		case errors.Is(err, ErrCrashed):
			return err
		case err != nil && ctx.Err() == nil:
			p.log.Error("pipeline step failed; will retry", "err", err)
		}
		if ctx.Err() != nil {
			return nil
		}
		if published {
			continue
		}
		if err := p.sleep(ctx, p.cfg.PollInterval); err != nil {
			return nil
		}
	}
}
