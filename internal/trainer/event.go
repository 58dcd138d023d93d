package trainer

import "time"

// EventKind names one training-telemetry milestone.
type EventKind string

const (
	// EventCorpusProgress is emitted during Inf2vec's context generation
	// (Algorithm 2 lines 3–8): periodically while episodes are being
	// processed and once on completion, carrying episodes done/total,
	// throughput and the corpus worker count. It precedes train_start.
	EventCorpusProgress EventKind = "corpus_progress"
	// EventTrainStart is emitted once per training call, before the first
	// pass: carries the epoch count (and, for Inf2vec, the corpus shape and
	// the first epoch to run).
	EventTrainStart EventKind = "train_start"
	// EventEpochStart is emitted before each pass with the (1-based) epoch
	// about to run and the step size it will use.
	EventEpochStart EventKind = "epoch_start"
	// EventEpochEnd is emitted after each completed pass with the loss,
	// wall-clock duration and throughput of that pass.
	EventEpochEnd EventKind = "epoch_end"
	// EventDivergenceRecovery is emitted when an Inf2vec pass left
	// non-finite parameters and training rolled back (or re-initialized) at
	// a halved learning rate.
	EventDivergenceRecovery EventKind = "divergence_recovery"
	// EventCheckpointWritten is emitted after a durable checkpoint reaches
	// disk.
	EventCheckpointWritten EventKind = "checkpoint_written"
	// EventTrainEnd is emitted once per run that returns a model (completed
	// or canceled); error returns emit nothing further.
	EventTrainEnd EventKind = "train_end"
	// EventBaselineStart and EventBaselineEnd bracket one baseline method's
	// training when a suite trains several models into one stream; Method
	// names the model. The baseline's own train_start..train_end events (if
	// any) appear between them.
	EventBaselineStart EventKind = "baseline_start"
	EventBaselineEnd   EventKind = "baseline_end"
)

// Event is the one training-telemetry record of the repository: Inf2vec,
// every engine-backed baseline and the experiment suite all emit it. Fields
// beyond Kind and Time are populated per kind (see the kind constants);
// zero-valued fields are omitted from JSON so a JSONL stream stays compact
// and greppable. encoding/json writes fields in struct order, so the field
// order is part of the JSONL format.
//
// Consumers receive events synchronously on the training goroutine, in
// order; a slow consumer slows training, so sinks should be cheap (buffered
// file writes, channel sends) rather than blocking I/O.
type Event struct {
	Kind EventKind `json:"event"`
	// Time is stamped by the trainer when the event is emitted.
	Time time.Time `json:"t"`
	// Method names the model an event belongs to when several methods share
	// one stream ("node2vec", "embic", ...); empty for Inf2vec's own
	// training events.
	Method string `json:"method,omitempty"`
	// Epoch is the 1-based epoch the event describes.
	Epoch int `json:"epoch,omitempty"`
	// Epochs is the total number of configured iterations (train_start) or
	// completed epochs (train_end).
	Epochs int `json:"epochs,omitempty"`
	// Loss is the pass's mean objective per example (for Inf2vec, the Eq. 4
	// objective per positive).
	Loss float64 `json:"loss,omitempty"`
	// DurationSeconds is the wall-clock time of the pass.
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// ExamplesPerSec is examples processed per second in the pass.
	ExamplesPerSec float64 `json:"examples_per_sec,omitempty"`
	// LearningRate is the effective step size of the pass (after decay and
	// divergence-recovery scaling).
	LearningRate float64 `json:"lr,omitempty"`
	// NumTuples and NumPositives describe Inf2vec's generated corpus
	// (train_start).
	NumTuples    int   `json:"tuples,omitempty"`
	NumPositives int64 `json:"positives,omitempty"`
	// Examples is the pass's example count (for Inf2vec, its positives);
	// Skips its abandoned-draw count (see Totals.Skips). Inf2vec and every
	// engine-backed baseline report both on epoch_end.
	Examples int64 `json:"examples,omitempty"`
	Skips    int64 `json:"skips,omitempty"`
	// EpisodesDone, EpisodesTotal, EpisodesPerSec and CorpusWorkers report
	// context-generation progress (corpus_progress).
	EpisodesDone   int     `json:"episodes_done,omitempty"`
	EpisodesTotal  int     `json:"episodes_total,omitempty"`
	EpisodesPerSec float64 `json:"episodes_per_sec,omitempty"`
	CorpusWorkers  int     `json:"corpus_workers,omitempty"`
	// LRScale and Reinit describe a divergence recovery
	// (divergence_recovery).
	LRScale float64 `json:"lr_scale,omitempty"`
	Reinit  bool    `json:"reinit,omitempty"`
	// CheckpointPath is the file a checkpoint was written to.
	CheckpointPath string `json:"checkpoint,omitempty"`
	// Canceled reports an early stop via context cancellation (train_end,
	// baseline_end).
	Canceled bool `json:"canceled,omitempty"`
}
