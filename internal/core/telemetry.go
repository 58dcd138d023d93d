package core

import (
	"time"

	"inf2vec/internal/trainer"
)

// Event, EventKind and the kind constants below are aliases of the one
// training-event type, trainer.Event, and its kinds. They remain only
// because perfbench and the inf2vec facade name them; the rest of the
// program uses the trainer names.
type (
	Event     = trainer.Event
	EventKind = trainer.EventKind
)

const (
	EventCorpusProgress     = trainer.EventCorpusProgress
	EventTrainStart         = trainer.EventTrainStart
	EventEpochStart         = trainer.EventEpochStart
	EventEpochEnd           = trainer.EventEpochEnd
	EventDivergenceRecovery = trainer.EventDivergenceRecovery
	EventCheckpointWritten  = trainer.EventCheckpointWritten
	EventTrainEnd           = trainer.EventTrainEnd
)

// emit stamps and delivers an event when a telemetry sink is configured.
func (cfg *Config) emit(e trainer.Event) {
	if cfg.Telemetry == nil {
		return
	}
	e.Time = time.Now()
	cfg.Telemetry(e)
}
