package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"inf2vec/internal/embed"
	"inf2vec/internal/rng"
)

// fixtureState is the deterministic input behind testdata/state.ckpt: two
// epoch stats, one recovery, one worker stream and a nested 3x2 store.
func fixtureState(t *testing.T) *State {
	t.Helper()
	store, err := embed.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	store.Init(rng.New(4))
	return &State{
		ConfigHash: 0x0123456789abcdef,
		LRScale:    0.5,
		EpochsDone: 2,
		Retries:    1,
		EpochLoss:  []float64{-1.25, -0.75},
		EpochNanos: []int64{1_500_000, 2_500_000},
		Recoveries: []Recovery{{Epoch: 1, LRScale: 0.5, Reinit: true}},
		Root:       rng.New(1).State(),
		Order:      rng.New(2).State(),
		Workers:    [][4]uint64{rng.New(3).State()},
		Store:      store,
	}
}

// TestFixtureCheckpoint pins every byte of the checkpoint format, nested
// store included: Save of the fixture input must reproduce the committed
// file, and Load followed by Save must give it back.
func TestFixtureCheckpoint(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "state.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := Save(&saved, fixtureState(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Fatal("Save no longer writes the checkpoint fixture bytes")
	}
	st, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, st, fixtureState(t))
	var again bytes.Buffer
	if err := Save(&again, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("Load→Save of the checkpoint fixture changed its bytes")
	}
}
