package core

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"inf2vec/internal/embed"
	"inf2vec/internal/obs"
	"inf2vec/internal/trainer"
)

// tracedRun is one training call made under the "train" root span of a
// keep-all tracer.
type tracedRun struct {
	res       *Result
	events    []trainer.Event
	recovered any // the value of a panic training raised, if any
	tracer    *obs.Tracer
	trace     *obs.TraceRecord
}

// traceTrain runs train under a "train" root span, recovering a panic, then
// ends the root and returns the run with its trace. Telemetry events are
// recorded before cfg.Telemetry (if any) sees them.
func traceTrain(t *testing.T, ctx context.Context, cfg Config, train func(context.Context, Config) (*Result, error)) tracedRun {
	t.Helper()
	run := tracedRun{tracer: obs.NewTracer(obs.TracerConfig{SampleRate: 1, SlowThreshold: -1})}
	sink := cfg.Telemetry
	cfg.Telemetry = func(e trainer.Event) {
		run.events = append(run.events, e)
		if sink != nil {
			sink(e)
		}
	}
	tctx, root := run.tracer.StartRoot(ctx, "train")
	var err error
	func() {
		defer func() { run.recovered = recover() }()
		run.res, err = train(tctx, cfg)
	}()
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	traces := run.tracer.Traces(obs.TraceFilter{Root: "train"})
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	run.trace = traces[0]
	return run
}

// trainFault is TrainContext on faultData's 30-item log.
func trainFault(t *testing.T) func(context.Context, Config) (*Result, error) {
	g, l := faultData(t, 30)
	return func(ctx context.Context, cfg Config) (*Result, error) { return TrainContext(ctx, g, l, cfg) }
}

// spans returns the trace's spans named name, in start order, and fails
// unless each is a child of the root.
func (r tracedRun) spans(t *testing.T, name string) []obs.SpanRecord {
	t.Helper()
	var root string
	for _, s := range r.trace.Spans {
		if s.Name == "train" {
			root = s.SpanID
		}
	}
	var out []obs.SpanRecord
	for _, s := range r.trace.Spans {
		if s.Name != name {
			continue
		}
		if s.ParentID != root {
			t.Fatalf("%s span's parent is %q, want the root %q", name, s.ParentID, root)
		}
		out = append(out, s)
	}
	return out
}

// TestTrainSpanTree traces a checkpointed run that diverges once and checks
// the tree training builds under ctx's span: one corpus_gen span, one epoch
// span per pass carrying the figures of its epoch_start/epoch_end events,
// and every checkpoint write and divergence recovery as an event on the
// root, in the order training made them.
func TestTrainSpanTree(t *testing.T) {
	cfg := Config{
		Dim: 6, Iterations: 4, Seed: 9, ContextLength: 8, Workers: 1, CorpusWorkers: 1,
		CheckpointPath: filepath.Join(t.TempDir(), "train.ckpt"), CheckpointEvery: 1,
	}
	injected := false
	stop := testAfterEpoch
	testAfterEpoch = func(done int, store *embed.Store) {
		if done == 3 && !injected {
			injected = true
			store.SourceVec(0)[0] = float32(math.NaN())
		}
	}
	run := traceTrain(t, context.Background(), cfg, trainFault(t))
	testAfterEpoch = stop
	if run.recovered != nil {
		t.Fatal(run.recovered)
	}
	if open := run.tracer.OpenSpans(); open != 0 {
		t.Fatalf("%d spans still open", open)
	}

	corpus := run.spans(t, "corpus_gen")
	if len(corpus) != 1 {
		t.Fatalf("%d corpus_gen spans, want 1", len(corpus))
	}
	final := byKind(run.events, EventCorpusProgress)
	last := final[len(final)-1]
	c := corpus[0]
	if perSec, _ := c.Attrs["episodes_per_sec"].(float64); c.Status != "" ||
		c.Attrs["episodes_total"] != last.EpisodesTotal || c.Attrs["workers"] != last.CorpusWorkers || perSec <= 0 {
		t.Fatalf("corpus_gen span = %+v, want episodes_total %d, workers %d, positive episodes_per_sec",
			c, last.EpisodesTotal, last.CorpusWorkers)
	}

	// Epochs 1–3, then epoch 3 again after the rollback, then epoch 4.
	epochs := run.spans(t, "epoch")
	starts, ends := byKind(run.events, EventEpochStart), byKind(run.events, EventEpochEnd)
	if len(epochs) != 5 || len(starts) != 5 || len(ends) != 5 {
		t.Fatalf("%d epoch spans, %d epoch_start and %d epoch_end events, want 5 of each", len(epochs), len(starts), len(ends))
	}
	for i, s := range epochs {
		want := map[string]any{
			"epoch": starts[i].Epoch, "lr": starts[i].LearningRate,
			"loss": ends[i].Loss, "examples_per_sec": ends[i].ExamplesPerSec,
		}
		if s.Status != "" || len(s.Attrs) != len(want) {
			t.Fatalf("epoch span %d = %+v, want attrs %v", i, s, want)
		}
		for k, v := range want {
			if s.Attrs[k] != v {
				t.Fatalf("epoch span %d %s = %v, want %v", i, k, s.Attrs[k], v)
			}
		}
	}
	if epochs[2].Attrs["epoch"] != 3 || epochs[3].Attrs["epoch"] != 3 {
		t.Fatalf("epoch spans around the rollback are epochs %v and %v, want 3 and 3", epochs[2].Attrs["epoch"], epochs[3].Attrs["epoch"])
	}

	var names []string
	var root obs.SpanRecord
	for _, s := range run.trace.Spans {
		if s.Name == "train" {
			root = s
		}
	}
	for _, e := range root.Events {
		names = append(names, e.Name)
		switch e.Name {
		case "checkpoint_written":
			if e.Attrs["path"] != cfg.CheckpointPath {
				t.Fatalf("checkpoint event attrs = %v", e.Attrs)
			}
		case "divergence_recovery":
			if e.Attrs["lr_scale"] != 0.5 || e.Attrs["reinit"] != false {
				t.Fatalf("divergence event attrs = %v, want lr_scale 0.5 and a rollback", e.Attrs)
			}
		}
	}
	want := []string{"checkpoint_written", "checkpoint_written", "divergence_recovery", "checkpoint_written", "checkpoint_written"}
	if len(names) != len(want) {
		t.Fatalf("root events = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("root events = %v, want %v", names, want)
		}
	}
}

// TestCorpusSpanCoversContextGeneration checks that corpus_gen spans the
// generation it names: it lasts at least Result.ContextGeneration and ends
// before the first epoch starts.
func TestCorpusSpanCoversContextGeneration(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := Config{Dim: 6, Iterations: 1, Seed: 2, ContextLength: 8, Workers: 1, CorpusWorkers: workers}
		run := traceTrain(t, context.Background(), cfg, trainFault(t))
		corpus, epochs := run.spans(t, "corpus_gen"), run.spans(t, "epoch")
		if len(corpus) != 1 || len(epochs) != 1 {
			t.Fatalf("workers=%d: %d corpus_gen and %d epoch spans, want 1 and 1", workers, len(corpus), len(epochs))
		}
		c := corpus[0]
		if gen := run.res.ContextGeneration.Seconds() * 1e3; c.DurationMS < gen {
			t.Errorf("workers=%d: corpus_gen lasts %.4f ms, ContextGeneration %.4f ms", workers, c.DurationMS, gen)
		}
		if end := c.Start.Add(time.Duration(c.DurationMS * 1e6)); end.After(epochs[0].Start) {
			t.Errorf("workers=%d: corpus_gen ends at %v, after the first epoch starts at %v", workers, end, epochs[0].Start)
		}
	}
}

// TestRegeneratedCorpusSpans checks that every RegenerateContexts redraw is
// a corpus_gen span of its own.
func TestRegeneratedCorpusSpans(t *testing.T) {
	cfg := Config{Dim: 6, Iterations: 3, Seed: 5, ContextLength: 8, Workers: 1, CorpusWorkers: 1, RegenerateContexts: true}
	run := traceTrain(t, context.Background(), cfg, trainFault(t))
	if n := len(run.spans(t, "corpus_gen")); n != cfg.Iterations {
		t.Fatalf("%d corpus_gen spans, want %d (the first draw and one per later epoch)", n, cfg.Iterations)
	}
}

// TestEpochSpanCanceled cancels the run while epoch 2 starts: that pass is
// cut, and its span ends "canceled". Resuming the run from its checkpoint
// then traces the generation and the epochs that remain.
func TestEpochSpanCanceled(t *testing.T) {
	g, l := faultData(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Dim: 6, Iterations: 4, Seed: 4, ContextLength: 8, Workers: 1,
		CheckpointPath: filepath.Join(t.TempDir(), "train.ckpt"), CheckpointEvery: 1,
	}
	cut := cfg
	cut.Telemetry = func(e trainer.Event) {
		if e.Kind == trainer.EventEpochStart && e.Epoch == 2 {
			cancel()
		}
	}
	run := traceTrain(t, ctx, cut, trainFault(t))
	if !run.res.Canceled {
		t.Fatal("run not canceled")
	}
	epochs := run.spans(t, "epoch")
	if len(epochs) != 2 || epochs[0].Status != "" || epochs[1].Status != "canceled" {
		t.Fatalf("epoch spans = %+v, want a finished epoch 1 and a canceled epoch 2", epochs)
	}
	if _, ok := epochs[1].Attrs["loss"]; ok {
		t.Fatalf("canceled epoch span carries a loss: %v", epochs[1].Attrs)
	}

	resumed := traceTrain(t, context.Background(), cfg, func(ctx context.Context, cfg Config) (*Result, error) {
		return Resume(ctx, g, l, cfg)
	})
	if n := len(resumed.spans(t, "corpus_gen")); n != 1 {
		t.Fatalf("resumed run: %d corpus_gen spans, want 1", n)
	}
	epochs = resumed.spans(t, "epoch")
	if len(epochs) != 3 {
		t.Fatalf("resumed run: %d epoch spans, want 3", len(epochs))
	}
	for i, s := range epochs {
		if s.Status != "" || s.Attrs["epoch"] != i+2 {
			t.Fatalf("resumed epoch span %d = %+v, want epoch %d", i, s, i+2)
		}
	}
}

// TestSpansAbortedByPanic makes the Telemetry sink panic, as the streaming
// pipeline's injected crashes do, and checks that the span the panic
// unwinds through ends "aborted" and that no span stays open.
func TestSpansAbortedByPanic(t *testing.T) {
	for _, tc := range []struct {
		kind trainer.EventKind
		span string
	}{
		{trainer.EventCorpusProgress, "corpus_gen"},
		{trainer.EventEpochStart, "epoch"},
	} {
		cfg := Config{Dim: 6, Iterations: 3, Seed: 4, ContextLength: 8, Workers: 1}
		cfg.Telemetry = func(e trainer.Event) {
			if e.Kind == tc.kind {
				panic("injected crash at " + string(e.Kind))
			}
		}
		run := traceTrain(t, context.Background(), cfg, trainFault(t))
		if run.recovered == nil {
			t.Fatalf("%s: the sink's panic did not reach the caller", tc.kind)
		}
		if open := run.tracer.OpenSpans(); open != 0 {
			t.Fatalf("%s: %d spans left open", tc.kind, open)
		}
		spans := run.spans(t, tc.span)
		if len(spans) != 1 || spans[0].Status != "aborted" {
			t.Fatalf("%s: %s spans = %+v, want one aborted", tc.kind, tc.span, spans)
		}
	}
}

// TestUntracedTrainingOpensNoSpans checks that training under a ctx without
// a span records nothing in any tracer, and that tracing leaves the model's
// bits alone. TestUntracedCorpusGenAllocs checks the wrapper's allocations.
func TestUntracedTrainingOpensNoSpans(t *testing.T) {
	g, l := faultData(t, 30)
	cfg := Config{Dim: 6, Iterations: 3, Seed: 8, ContextLength: 8, Workers: 1, CorpusWorkers: 1}
	traced := traceTrain(t, context.Background(), cfg, trainFault(t))

	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1, SlowThreshold: -1})
	_, root := tracer.StartRoot(context.Background(), "train")
	res, err := TrainContext(context.Background(), g, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if open := tracer.OpenSpans(); open != 0 {
		t.Fatalf("%d spans open", open)
	}
	if traces := tracer.Traces(obs.TraceFilter{}); len(traces) != 1 || len(traces[0].Spans) != 1 {
		t.Fatalf("untraced training added spans to a live tracer: %+v", traces)
	}
	storesEqual(t, res.Model.Store, traced.res.Model.Store)
}
