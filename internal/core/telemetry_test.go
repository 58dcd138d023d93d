package core

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"time"

	"inf2vec/internal/embed"
)

// collect runs Train with a recording telemetry sink and returns the events.
func collect(t *testing.T, cfg Config) ([]Event, *Result) {
	t.Helper()
	g, l := faultData(t, 30)
	var events []Event
	cfg.Telemetry = func(e Event) { events = append(events, e) }
	res, err := Train(g, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// byKind filters events of one kind.
func byKind(events []Event, kind EventKind) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestTelemetryEventStream(t *testing.T) {
	const iters = 4
	events, res := collect(t, Config{Dim: 6, Iterations: iters, Seed: 3, ContextLength: 8})

	starts := byKind(events, EventTrainStart)
	if len(starts) != 1 {
		t.Fatalf("train_start events = %d, want 1", len(starts))
	}
	if starts[0].Epochs != iters || starts[0].NumTuples != res.NumTuples || starts[0].NumPositives != res.NumPositives {
		t.Errorf("train_start = %+v, want Epochs=%d NumTuples=%d NumPositives=%d",
			starts[0], iters, res.NumTuples, res.NumPositives)
	}
	if starts[0].Time.IsZero() {
		t.Error("train_start missing timestamp")
	}

	// The acceptance criterion: one epoch_end per epoch, each carrying the
	// loss and a positive examples/sec throughput.
	ends := byKind(events, EventEpochEnd)
	if len(ends) != iters {
		t.Fatalf("epoch_end events = %d, want %d", len(ends), iters)
	}
	for i, e := range ends {
		if e.Epoch != i+1 {
			t.Errorf("epoch_end %d has Epoch=%d, want %d", i, e.Epoch, i+1)
		}
		if e.Loss != res.Epochs[i].Loss {
			t.Errorf("epoch %d loss = %v, want %v", i+1, e.Loss, res.Epochs[i].Loss)
		}
		if e.ExamplesPerSec <= 0 || math.IsInf(e.ExamplesPerSec, 0) {
			t.Errorf("epoch %d examples/sec = %v, want finite positive", i+1, e.ExamplesPerSec)
		}
		if e.LearningRate <= 0 {
			t.Errorf("epoch %d lr = %v, want positive", i+1, e.LearningRate)
		}
		if e.Examples != res.NumPositives {
			t.Errorf("epoch %d examples = %d, want the corpus's %d positives", i+1, e.Examples, res.NumPositives)
		}
	}

	// epoch_start pairs with epoch_end and carries the same step size.
	if ss := byKind(events, EventEpochStart); len(ss) != iters {
		t.Errorf("epoch_start events = %d, want %d", len(ss), iters)
	} else {
		for i := range ss {
			if ss[i].Epoch != ends[i].Epoch || ss[i].LearningRate != ends[i].LearningRate {
				t.Errorf("epoch_start %d = %+v does not pair with epoch_end %+v", i, ss[i], ends[i])
			}
		}
	}

	finals := byKind(events, EventTrainEnd)
	if len(finals) != 1 || finals[0].Epochs != iters || finals[0].Canceled {
		t.Errorf("train_end = %+v, want one completed event with Epochs=%d", finals, iters)
	}
	// Context generation precedes training, so the stream opens with its
	// corpus_progress record(s), then train_start, and closes with train_end.
	first := 0
	for first < len(events) && events[first].Kind == EventCorpusProgress {
		first++
	}
	if first == 0 || events[first].Kind != EventTrainStart || events[len(events)-1].Kind != EventTrainEnd {
		t.Errorf("stream must open with corpus_progress then train_start and close with train_end; got %s ... %s",
			events[0].Kind, events[len(events)-1].Kind)
	}
}

// TestTelemetryCorpusProgress pins the corpus_progress contract: a final
// completion record always closes the generation phase, and with the
// emission interval forced down intermediate records appear too.
func TestTelemetryCorpusProgress(t *testing.T) {
	saved := corpusProgressInterval
	corpusProgressInterval = time.Nanosecond
	defer func() { corpusProgressInterval = saved }()

	for _, workers := range []int{1, 4} {
		events, _ := collect(t, Config{Dim: 4, Iterations: 1, Seed: 2, ContextLength: 8, CorpusWorkers: workers})
		progress := byKind(events, EventCorpusProgress)
		if len(progress) == 0 {
			t.Fatalf("workers=%d: no corpus_progress events", workers)
		}
		final := progress[len(progress)-1]
		if final.EpisodesTotal == 0 || final.EpisodesDone != final.EpisodesTotal {
			t.Errorf("workers=%d: final corpus_progress = %+v, want EpisodesDone == EpisodesTotal > 0", workers, final)
		}
		if final.EpisodesPerSec <= 0 {
			t.Errorf("workers=%d: final corpus_progress throughput = %v, want positive", workers, final.EpisodesPerSec)
		}
		if final.CorpusWorkers < 1 {
			t.Errorf("workers=%d: corpus_progress reports %d workers", workers, final.CorpusWorkers)
		}
		for _, e := range progress {
			if e.EpisodesDone < 0 || e.EpisodesDone > e.EpisodesTotal {
				t.Errorf("workers=%d: corpus_progress out of range: %+v", workers, e)
			}
		}
		// Generation precedes training: every corpus event must come before
		// train_start.
		for i, e := range events {
			if e.Kind == EventTrainStart {
				break
			}
			if e.Kind != EventCorpusProgress {
				t.Errorf("workers=%d: event %d before train_start is %s", workers, i, e.Kind)
			}
		}
	}
}

func TestTelemetryCheckpointEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.ckpt")
	events, _ := collect(t, Config{
		Dim: 6, Iterations: 3, Seed: 3, ContextLength: 8,
		CheckpointPath: path, CheckpointEvery: 1,
	})
	cps := byKind(events, EventCheckpointWritten)
	if len(cps) != 3 {
		t.Fatalf("checkpoint_written events = %d, want 3", len(cps))
	}
	for i, e := range cps {
		if e.Epoch != i+1 || e.CheckpointPath != path {
			t.Errorf("checkpoint event %d = %+v, want Epoch=%d Path=%s", i, e, i+1, path)
		}
	}
}

func TestTelemetryDivergenceRecovery(t *testing.T) {
	g, l := faultData(t, 30)
	cfg := Config{Dim: 6, Iterations: 5, Seed: 9, ContextLength: 8, CheckpointEvery: 1}
	var events []Event
	cfg.Telemetry = func(e Event) { events = append(events, e) }
	injected := false
	stop := testAfterEpoch
	testAfterEpoch = func(done int, store *embed.Store) {
		if done == 3 && !injected {
			injected = true
			store.SourceVec(0)[0] = float32(math.NaN())
		}
	}
	_, err := Train(g, l, cfg)
	testAfterEpoch = stop
	if err != nil {
		t.Fatal(err)
	}
	recs := byKind(events, EventDivergenceRecovery)
	if len(recs) != 1 {
		t.Fatalf("divergence_recovery events = %d, want 1", len(recs))
	}
	if recs[0].Epoch != 3 || recs[0].LRScale != 0.5 || recs[0].Reinit {
		t.Errorf("recovery event = %+v, want rollback after epoch 3 with LRScale 0.5", recs[0])
	}
}

func TestTelemetryCanceledRun(t *testing.T) {
	g, l := faultData(t, 30)
	cfg := Config{Dim: 6, Iterations: 6, Seed: 4, ContextLength: 8}
	var events []Event
	cfg.Telemetry = func(e Event) { events = append(events, e) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := testAfterEpoch
	testAfterEpoch = func(done int, _ *embed.Store) {
		if done == 2 {
			cancel()
		}
	}
	res, err := TrainContext(ctx, g, l, cfg)
	testAfterEpoch = stop
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("run not canceled")
	}
	finals := byKind(events, EventTrainEnd)
	if len(finals) != 1 || !finals[0].Canceled {
		t.Fatalf("train_end = %+v, want one canceled event", finals)
	}
	if finals[0].Epochs != len(res.Epochs) {
		t.Errorf("train_end Epochs = %d, want %d completed", finals[0].Epochs, len(res.Epochs))
	}
}

// TestTelemetryEventsAreJSON pins the wire format consumers grep for: every
// event marshals to one JSON object with an "event" discriminator and a
// timestamp, and epoch_end rows carry loss and examples_per_sec keys.
func TestTelemetryEventsAreJSON(t *testing.T) {
	events, _ := collect(t, Config{Dim: 4, Iterations: 2, Seed: 1, ContextLength: 8})
	for _, e := range events {
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if m["event"] != string(e.Kind) || m["t"] == nil {
			t.Errorf("marshaled event %s missing discriminator or timestamp: %s", e.Kind, raw)
		}
		if e.Kind == EventEpochEnd {
			for _, key := range []string{"loss", "examples_per_sec", "duration_seconds", "lr", "epoch"} {
				if _, ok := m[key]; !ok {
					t.Errorf("epoch_end row missing %q: %s", key, raw)
				}
			}
		}
	}
}
