package trainer

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"inf2vec/internal/obs"
)

// TestRunEpochLoop covers the happy path: stats per epoch, mean loss,
// and the telemetry envelope with the method label on every event.
func TestRunEpochLoop(t *testing.T) {
	var events []Event
	res, err := Run(context.Background(), RunConfig{
		Method: "demo", Epochs: 3,
		LearningRate: func(epoch int) float64 { return 0.1 / float64(epoch+1) },
		Telemetry:    func(e Event) { events = append(events, e) },
	}, func(done <-chan struct{}, epoch int) Totals {
		return Totals{Loss: -2 * float64(epoch+1), Examples: 2, Skips: int64(epoch)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Canceled || len(res.Epochs) != 3 {
		t.Fatalf("result = %+v", res)
	}
	for i, e := range res.Epochs {
		if e.Loss != -float64(i+1) || e.Examples != 2 || e.Skips != int64(i) {
			t.Fatalf("epoch %d stat = %+v", i, e)
		}
	}
	wantKinds := []EventKind{
		EventTrainStart,
		EventEpochStart, EventEpochEnd,
		EventEpochStart, EventEpochEnd,
		EventEpochStart, EventEpochEnd,
		EventTrainEnd,
	}
	if len(events) != len(wantKinds) {
		t.Fatalf("%d events, want %d", len(events), len(wantKinds))
	}
	for i, e := range events {
		if e.Kind != wantKinds[i] || e.Method != "demo" || e.Time.IsZero() {
			t.Fatalf("event %d = %+v, want kind %s with method and timestamp", i, e, wantKinds[i])
		}
	}
	if events[1].LearningRate != 0.1 {
		t.Fatalf("epoch 1 lr = %v", events[1].LearningRate)
	}
}

// TestRunCancellation verifies both cancellation sites: mid-pass (the pass
// that was draining is not recorded) and at the epoch boundary.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var last Event
	res, err := Run(ctx, RunConfig{
		Method: "demo", Epochs: 5,
		Telemetry: func(e Event) { last = e },
	}, func(done <-chan struct{}, epoch int) Totals {
		if epoch == 2 {
			cancel() // simulates SIGINT arriving mid-pass
		}
		return Totals{Loss: -1, Examples: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || len(res.Epochs) != 2 {
		t.Fatalf("result = %+v, want canceled after 2 recorded epochs", res)
	}
	if last.Kind != EventTrainEnd || !last.Canceled || last.Epochs != 2 {
		t.Fatalf("final event = %+v", last)
	}
}

// TestRunEpochSpans traces a run and asserts each pass became an "epoch"
// child span carrying the same loss/throughput figures as the telemetry
// stream, with a mid-pass cancellation closing the in-flight span as
// canceled and a recovered panic closing it as aborted rather than leaking
// it.
func TestRunEpochSpans(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1, SlowThreshold: -1})
	ctx, root := tracer.StartRoot(context.Background(), "baseline")
	res, err := Run(ctx, RunConfig{Method: "demo", Epochs: 3}, func(done <-chan struct{}, epoch int) Totals {
		return Totals{Loss: -2 * float64(epoch+1), Examples: 2}
	})
	if err != nil || len(res.Epochs) != 3 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	root.End()
	traces := tracer.Traces(obs.TraceFilter{Root: "baseline"})
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	var epochs []obs.SpanRecord
	for _, s := range traces[0].Spans {
		if s.Name == "epoch" {
			epochs = append(epochs, s)
		}
	}
	if len(epochs) != 3 {
		t.Fatalf("got %d epoch spans, want 3", len(epochs))
	}
	for i, s := range epochs {
		if s.Attrs["method"] != "demo" || s.Attrs["epoch"] != i+1 {
			t.Fatalf("epoch span %d attrs = %v", i, s.Attrs)
		}
		if s.Attrs["loss"] != -float64(i+1) {
			t.Fatalf("epoch span %d loss = %v, want %v", i, s.Attrs["loss"], -float64(i+1))
		}
		if s.Status != "" {
			t.Fatalf("epoch span %d status = %q", i, s.Status)
		}
	}
	if open := tracer.OpenSpans(); open != 0 {
		t.Fatalf("%d spans still open", open)
	}

	// Mid-pass cancellation: the draining pass's span closes as canceled.
	cctx, cancel := context.WithCancel(context.Background())
	ctx2, root2 := tracer.StartRoot(cctx, "baseline_cancel")
	res, err = Run(ctx2, RunConfig{Method: "demo", Epochs: 5}, func(done <-chan struct{}, epoch int) Totals {
		if epoch == 1 {
			cancel()
		}
		return Totals{Loss: -1, Examples: 1}
	})
	if err != nil || !res.Canceled {
		t.Fatalf("canceled run: %+v, %v", res, err)
	}
	root2.End()
	traces = tracer.Traces(obs.TraceFilter{Root: "baseline_cancel"})
	if len(traces) != 1 {
		t.Fatalf("got %d cancel traces, want 1", len(traces))
	}
	var statuses []string
	for _, s := range traces[0].Spans {
		if s.Name == "epoch" {
			statuses = append(statuses, s.Status)
		}
	}
	if len(statuses) != 2 || statuses[0] != "" || statuses[1] != "canceled" {
		t.Fatalf("epoch span statuses = %v, want [ \"\" canceled ]", statuses)
	}
	if open := tracer.OpenSpans(); open != 0 {
		t.Fatalf("%d spans still open after cancellation", open)
	}

	// A pass that panics at epoch 2, and a Probe that panics: the epoch
	// span the panic unwinds through closes as aborted.
	for _, tc := range []struct {
		name string
		cfg  RunConfig
		pass func(done <-chan struct{}, epoch int) Totals
		want []string // epoch span statuses
	}{
		{"pass", RunConfig{Method: "demo", Epochs: 3}, func(done <-chan struct{}, epoch int) Totals {
			if epoch == 1 {
				panic("pass")
			}
			return Totals{Loss: -1, Examples: 1}
		}, []string{"", "aborted"}},
		{"probe", RunConfig{Method: "demo", Epochs: 3, Probe: func() bool { panic("probe") }},
			func(done <-chan struct{}, epoch int) Totals { return Totals{Loss: -1, Examples: 1} },
			[]string{"aborted"}},
	} {
		rootName := "baseline_panic_" + tc.name
		ctx3, root3 := tracer.StartRoot(context.Background(), rootName)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Run did not panic", tc.name)
				}
			}()
			Run(ctx3, tc.cfg, tc.pass)
		}()
		root3.End()
		if open := tracer.OpenSpans(); open != 0 {
			t.Fatalf("%s: %d spans still open after a recovered panic", tc.name, open)
		}
		traces = tracer.Traces(obs.TraceFilter{Root: rootName})
		if len(traces) != 1 {
			t.Fatalf("%s: got %d traces, want 1", tc.name, len(traces))
		}
		statuses = statuses[:0]
		for _, s := range traces[0].Spans {
			if s.Name == "epoch" {
				statuses = append(statuses, s.Status)
			}
		}
		if !slices.Equal(statuses, tc.want) {
			t.Fatalf("%s: epoch span statuses = %q, want %q", tc.name, statuses, tc.want)
		}
	}
}

// TestRunDivergence verifies the NaN-loss and Probe paths both surface
// ErrDiverged.
func TestRunDivergence(t *testing.T) {
	_, err := Run(context.Background(), RunConfig{Epochs: 2}, func(done <-chan struct{}, epoch int) Totals {
		return Totals{Loss: math.NaN(), Examples: 1}
	})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("NaN loss: err = %v", err)
	}
	_, err = Run(context.Background(), RunConfig{
		Epochs: 2,
		Probe:  func() bool { return true },
	}, func(done <-chan struct{}, epoch int) Totals {
		return Totals{Loss: -1, Examples: 1}
	})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("probe: err = %v", err)
	}
}
