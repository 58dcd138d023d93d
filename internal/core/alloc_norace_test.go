//go:build !race

package core

import (
	"context"
	"testing"

	"inf2vec/internal/rng"
)

// TestUntracedCorpusGenAllocs checks that the corpus_gen wrapper, under a
// ctx without a span, allocates nothing beyond GenerateCorpus. It runs only
// without -race: under the race runtime GenerateCorpus alone reads a
// different allocation count from call to call, so no equality of counts
// holds there.
func TestUntracedCorpusGenAllocs(t *testing.T) {
	g, l := faultData(t, 30)
	cfg := Config{Dim: 6, Iterations: 3, Seed: 8, ContextLength: 8, Workers: 1, CorpusWorkers: 1}
	full, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	bare := testing.AllocsPerRun(5, func() { GenerateCorpus(g, l, full, rng.New(1)) })
	wrapped := testing.AllocsPerRun(5, func() { generateCorpus(context.Background(), g, l, full, rng.New(1)) })
	if wrapped != bare {
		t.Fatalf("untraced corpus_gen wrapper: %v allocations per call, GenerateCorpus alone %v", wrapped, bare)
	}
}
