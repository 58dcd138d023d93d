package experiments

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"inf2vec/internal/embed"
	"inf2vec/internal/obs"
	"inf2vec/internal/trainer"
)

func saveStore(t *testing.T, s *embed.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestModelsStableAcrossWorkers pins the Workers contract: the trained
// bundle is bitwise identical whether baselines train one at a time or
// several in flight, because every baseline carries its own seed and the
// engine's results are worker-count-independent, and Inf2vec's models are
// the same at any Workers value.
func TestModelsStableAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two full model bundles")
	}
	serial := NewSuite(Options{Seed: 1, Scale: 4, Workers: 1})
	ref, err := serial.Models("digg-like")
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewSuite(Options{Seed: 1, Scale: 4, Workers: 4})
	got, err := parallel.Models("digg-like")
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(saveStore(t, got.n2v.Store), saveStore(t, ref.n2v.Store)) {
		t.Error("node2vec model differs between serial and concurrent training")
	}
	if !bytes.Equal(saveStore(t, got.mf.Store), saveStore(t, ref.mf.Store)) {
		t.Error("mf model differs between serial and concurrent training")
	}
	if !bytes.Equal(saveStore(t, got.embIC.Store), saveStore(t, ref.embIC.Store)) {
		t.Error("embic model differs between serial and concurrent training")
	}
	if len(got.inf) != len(ref.inf) {
		t.Fatalf("%d Inf2vec models at Workers 4, %d at Workers 1", len(got.inf), len(ref.inf))
	}
	for i := range ref.inf {
		if !bytes.Equal(saveStore(t, got.inf[i].Store), saveStore(t, ref.inf[i].Store)) {
			t.Errorf("Inf2vec model %d differs between Workers 1 and 4", i)
		}
	}
	for slot := int64(0); slot < ref.em.NumEdges(); slot++ {
		if got.em.ProbAt(slot) != ref.em.ProbAt(slot) {
			t.Fatalf("em estimate differs between serial and concurrent training at slot %d", slot)
		}
	}
}

// TestModelsEmitsBaselineEvents checks that one Models call brackets every
// trained baseline with baseline_start/baseline_end records and labels the
// forwarded engine events with the method name.
func TestModelsEmitsBaselineEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a full model bundle")
	}
	var mu sync.Mutex
	starts := map[string]int{}
	ends := map[string]int{}
	epochEnds := map[string]int{}
	s := NewSuite(Options{
		Seed: 1, Scale: 4, Workers: 4,
		Telemetry: func(e trainer.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch e.Kind {
			case trainer.EventBaselineStart:
				starts[e.Method]++
			case trainer.EventBaselineEnd:
				ends[e.Method]++
			case trainer.EventEpochEnd:
				epochEnds[e.Method]++
			}
		},
	})
	if _, err := s.Models("digg-like"); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"st", "em", "embic", "mf", "node2vec"} {
		if starts[method] != 1 || ends[method] != 1 {
			t.Errorf("%s: %d start / %d end events, want 1/1", method, starts[method], ends[method])
		}
	}
	// Engine-backed baselines forward their per-epoch telemetry under the
	// suite's method label.
	for _, method := range []string{"em", "embic", "mf", "node2vec"} {
		if epochEnds[method] == 0 {
			t.Errorf("%s: no forwarded epoch_end events", method)
		}
	}
}

// TestModelsCanceledContext verifies a canceled suite context aborts model
// training with the context error instead of caching a partial bundle.
func TestModelsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSuite(Options{Seed: 1, Scale: 4, Context: ctx})
	if _, err := s.Models("digg-like"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Models error = %v, want context.Canceled", err)
	}
}

// TestInf2vecSpansHangOffTheSuiteContext trains one Inf2vec model under a
// traced suite context, as `inf2vec experiments` does, and checks that its
// corpus_gen span and one epoch span per pass are children of the
// context's span.
func TestInf2vecSpansHangOffTheSuiteContext(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1, SlowThreshold: -1})
	ctx, root := tracer.StartRoot(context.Background(), "experiments")
	s := NewSuite(Options{Seed: 1, Scale: 4, Workers: 1, Context: ctx})
	if _, err := s.inf2vecL("digg-like", &trainedModels{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	traces := tracer.Traces(obs.TraceFilter{Root: "experiments"})
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	children := map[string]int{}
	for _, sp := range traces[0].Spans {
		if sp.ParentID == root.ID().String() {
			children[sp.Name]++
		}
	}
	if want := s.inf2vecConfig(0).Iterations; children["corpus_gen"] != 1 || children["epoch"] != want {
		t.Fatalf("root's children = %v, want 1 corpus_gen and %d epoch spans", children, want)
	}
}
