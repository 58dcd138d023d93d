package core

import (
	"errors"
	"testing"
)

func TestWithDefaults(t *testing.T) {
	cfg, err := Config{Alpha: -1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dim != 50 || cfg.ContextLength != 50 || cfg.Alpha != 0.1 ||
		cfg.RestartRatio != 0.5 || cfg.LearningRate != 0.005 ||
		cfg.NegativeSamples != 5 || cfg.Iterations != 10 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestExplicitZeroAlphaKept(t *testing.T) {
	cfg, err := Config{Alpha: 0}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != 0 {
		t.Fatalf("Alpha = %v, want explicit 0 preserved", cfg.Alpha)
	}
}

// TestHashIgnoresCorpusWorkers pins the fingerprint contract that lets a
// checkpoint written at one -corpus-workers value resume at another: the
// corpus is bitwise identical at any worker count, so the knob must not
// invalidate checkpoints. Config.Workers selects nothing, so it must not
// change the hash either, and the hash is the one a run at one worker
// always had (0x8ec6b66b360c8afa for this configuration), so checkpoints
// written at one worker still resume.
func TestHashIgnoresCorpusWorkers(t *testing.T) {
	base, err := Config{Seed: 9}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got := base.hash(); got != 0x8ec6b66b360c8afa {
		t.Errorf("fingerprint = %#x, want the one-worker value 0x8ec6b66b360c8afa", got)
	}
	alt := base
	alt.CorpusWorkers = 13
	if base.hash() != alt.hash() {
		t.Error("CorpusWorkers changed the config fingerprint")
	}
	for _, workers := range []int{1, 2, 8} {
		sgd := base
		sgd.Workers = workers
		if base.hash() != sgd.hash() {
			t.Errorf("SGD Workers %d changed the config fingerprint", workers)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dim: -1},
		{ContextLength: -5},
		{Alpha: 1.5},
		{RestartRatio: -0.1},
		{RestartRatio: 1.1},
		{LearningRate: -0.01},
		{NegativeSamples: -1},
		{Iterations: -2},
		{NegativePower: -0.5},
		{NegativePower: 2},
		{Workers: -3},
		{CorpusWorkers: -3},
	}
	for _, cfg := range bad {
		if _, err := cfg.withDefaults(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %+v: err = %v, want ErrBadConfig", cfg, err)
		}
	}
}
