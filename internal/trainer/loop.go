package trainer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"inf2vec/internal/obs"
)

// ErrDiverged is returned by Run when a pass produces a non-finite loss or
// the objective's Probe reports non-finite parameters. Baselines fail fast
// on it; internal/core keeps its own rollback-and-halve recovery above the
// engine because recovery needs the checkpoint machinery.
var ErrDiverged = errors.New("trainer: training diverged to non-finite values")

// RunConfig parameterizes Run.
type RunConfig struct {
	// Method labels this run's telemetry events.
	Method string
	// Epochs is the number of passes to run.
	Epochs int
	// LearningRate, when non-nil, reports the step size of a 0-based epoch
	// for telemetry; the objective applies its own schedule internally.
	LearningRate func(epoch int) float64
	// Telemetry, when non-nil, receives events synchronously on the calling
	// goroutine.
	Telemetry func(Event)
	// Probe, when non-nil, is called after each pass and reports whether the
	// parameters went non-finite — a second line of divergence defense for
	// rows the pass's loss did not sum over.
	Probe func() bool
}

// EpochStat records one completed pass.
type EpochStat struct {
	// Loss is the mean objective per example over the pass.
	Loss float64
	// Examples and Skips are the pass's Totals counts.
	Examples int64
	Skips    int64
	// Duration is the wall-clock time of the pass.
	Duration time.Duration
}

// RunResult is the outcome of Run.
type RunResult struct {
	// Epochs has one entry per completed pass.
	Epochs []EpochStat
	// Canceled reports that ctx was canceled before the configured epochs
	// completed. The caller's parameters hold every completed pass plus any
	// partial pass that was draining; Epochs records completed passes only.
	Canceled bool
}

// Run drives an epoch loop over pass: cancellation at epoch boundaries and —
// via the done channel every pass implementation polls — inside passes,
// per-epoch loss/throughput telemetry, and NaN/Inf divergence detection.
// pass receives the 0-based epoch and must return that pass's totals.
func Run(ctx context.Context, cfg RunConfig, pass func(done <-chan struct{}, epoch int) Totals) (*RunResult, error) {
	emit := func(e Event) {
		if cfg.Telemetry == nil {
			return
		}
		e.Time = time.Now()
		e.Method = cfg.Method
		cfg.Telemetry(e)
	}
	res := &RunResult{}
	done := ctx.Done()
	var span *obs.Span // the open epoch span
	// A pass or Probe that panics still ends its epoch span, as core's do.
	defer func() { span.EndWith("aborted") }()
	emit(Event{Kind: EventTrainStart, Epochs: cfg.Epochs})
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if ctx.Err() != nil {
			res.Canceled = true
			emit(Event{Kind: EventTrainEnd, Epochs: epoch, Canceled: true})
			return res, nil
		}
		lr := 0.0
		if cfg.LearningRate != nil {
			lr = cfg.LearningRate(epoch)
		}
		emit(Event{Kind: EventEpochStart, Epoch: epoch + 1, LearningRate: lr})
		// Each pass is a span when ctx carries one (inert otherwise), so a
		// traced experiment or pipeline round shows per-epoch latency with
		// the same loss/throughput figures as the telemetry stream.
		span = obs.ChildSpan(ctx, "epoch")
		span.SetAttr("method", cfg.Method)
		span.SetAttr("epoch", epoch+1)
		span.SetAttr("lr", lr)
		t0 := time.Now()
		totals := pass(done, epoch)
		if ctx.Err() != nil {
			// Canceled mid-pass: the parameters hold a usable partial update
			// but not an epoch boundary, so the pass is not recorded.
			res.Canceled = true
			span.SetStatus("canceled")
			span.End()
			emit(Event{Kind: EventTrainEnd, Epochs: epoch, Canceled: true})
			return res, nil
		}
		stat := EpochStat{Examples: totals.Examples, Skips: totals.Skips, Duration: time.Since(t0)}
		if totals.Examples > 0 {
			stat.Loss = totals.Loss / float64(totals.Examples)
		}
		res.Epochs = append(res.Epochs, stat)
		perSec := 0.0
		if s := stat.Duration.Seconds(); s > 0 {
			perSec = float64(totals.Examples) / s
		}
		diverged := math.IsNaN(stat.Loss) || math.IsInf(stat.Loss, 0) || (cfg.Probe != nil && cfg.Probe())
		span.SetAttr("loss", stat.Loss)
		span.SetAttr("examples_per_sec", perSec)
		if diverged {
			span.SetStatus("error")
		}
		span.End()
		emit(Event{
			Kind: EventEpochEnd, Epoch: epoch + 1, Loss: stat.Loss,
			DurationSeconds: stat.Duration.Seconds(), ExamplesPerSec: perSec,
			LearningRate: lr, Examples: stat.Examples, Skips: stat.Skips,
		})
		if diverged {
			return nil, fmt.Errorf("%w: non-finite state after epoch %d", ErrDiverged, epoch+1)
		}
	}
	emit(Event{Kind: EventTrainEnd, Epochs: cfg.Epochs})
	return res, nil
}
