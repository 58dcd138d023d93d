// Package checkpoint implements durable training checkpoints for the
// Inf2vec trainer: the embedding store plus everything needed to resume an
// SGD run exactly where it stopped (completed-epoch counter, per-epoch
// stats, the halving state of divergence recovery, and the full internal
// state of every random-number generator the training loop consumes).
//
// The on-disk format is framed by internal/frame (see DESIGN.md, "Durable
// files"):
//
//	magic "I2VCKP" | version byte (1) | reserved zero byte
//	uint64 configHash
//	float64 lrScale
//	int32 epochsDone | int32 retries
//	int32 numStats   | numStats × (float64 loss, int64 durationNs)
//	int32 numRecoveries | numRecoveries × (int32 epoch, float64 lrScale, byte reinit)
//	[4]uint64 root RNG | [4]uint64 order RNG
//	int32 numWorkers | numWorkers × [4]uint64 worker RNG
//	int64 storeLen | store bytes (internal/embed format v2)
//	uint32 CRC-32 (IEEE) of every preceding byte
//
// all little-endian. Writes are atomic: the state is written to a temporary
// file in the destination directory, fsynced, and renamed over the target,
// so a crash mid-write can never leave a half-written checkpoint under the
// configured path. Loads decode as they read: a count field allocates
// nothing until the entries it announces arrive, so a corrupt header cannot
// demand memory the file does not back. Load verifies the CRC trailer before
// it returns, so a truncated or bit-flipped file is rejected with
// ErrBadFormat rather than resuming from silently-wrong parameters.
package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"inf2vec/internal/atomicfile"
	"inf2vec/internal/embed"
	"inf2vec/internal/frame"
)

// Version is the current checkpoint format version.
const Version = 1

var magic = [6]byte{'I', '2', 'V', 'C', 'K', 'P'}

// ErrBadFormat is returned by Load when the input is not a checkpoint
// written by Save: wrong magic, unsupported version, truncated body,
// CRC mismatch, or out-of-range counts.
var ErrBadFormat = errors.New("checkpoint: not a valid checkpoint file")

// Recovery records one divergence-recovery event of the training loop.
type Recovery struct {
	// Epoch is the zero-based epoch whose pass produced non-finite
	// parameters or loss.
	Epoch int
	// LRScale is the global learning-rate multiplier after halving.
	LRScale float64
	// Reinit reports whether the store was re-initialized from scratch
	// (no rollback snapshot existed) rather than rolled back.
	Reinit bool
}

// State is everything the trainer needs to resume a run exactly.
type State struct {
	// ConfigHash fingerprints the training configuration; Resume refuses a
	// checkpoint whose hash does not match the caller's config.
	ConfigHash uint64
	// LRScale is the current divergence-recovery learning-rate multiplier.
	LRScale float64
	// EpochsDone counts completed SGD passes.
	EpochsDone int
	// Retries counts divergence recoveries consumed so far.
	Retries int
	// EpochLoss and EpochNanos record per-completed-epoch stats.
	EpochLoss  []float64
	EpochNanos []int64
	// Recoveries is the divergence-recovery history.
	Recoveries []Recovery
	// Root, Order and Workers are the captured RNG states (xoshiro256**).
	// Inf2vec's SGD pass has one stream, so it writes and accepts exactly
	// one Workers entry; the format still records the count.
	Root    [4]uint64
	Order   [4]uint64
	Workers [][4]uint64
	// Store holds the model parameters at the epoch boundary.
	Store *embed.Store
}

// Save writes the state to w in the package binary format, including the
// CRC trailer. Most callers want SaveFile for atomicity.
func Save(w io.Writer, st *State) error {
	if st.Store == nil {
		return fmt.Errorf("checkpoint: save: nil store")
	}
	fw := frame.NewWriter(w, magic, Version)
	fw.Put(st.ConfigHash, st.LRScale, int32(st.EpochsDone), int32(st.Retries), int32(len(st.EpochLoss)))
	for i, loss := range st.EpochLoss {
		var ns int64
		if i < len(st.EpochNanos) {
			ns = st.EpochNanos[i]
		}
		fw.Put(loss, ns)
	}
	fw.Put(int32(len(st.Recoveries)))
	for _, rec := range st.Recoveries {
		fw.Put(int32(rec.Epoch), rec.LRScale, rec.Reinit)
	}
	fw.Put(st.Root, st.Order, int32(len(st.Workers)), st.Workers, st.Store.SaveSize())
	// The store writes through fw, so its bytes enter the checkpoint's CRC.
	if err := st.Store.Save(fw); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := fw.Trailer(); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// SaveFile atomically and durably writes the state to path: the bytes land
// in a temporary file in the same directory, are fsynced, the file is
// renamed over path, and the directory is fsynced. Readers therefore observe
// either the previous checkpoint or the complete new one, never a torn
// write, even across a machine crash.
func SaveFile(path string, st *State) error {
	// Save's own errors already carry the "checkpoint: save" context;
	// atomicfile annotates the temp/rename/sync steps.
	return atomicfile.WriteTo(path, func(w io.Writer) error { return Save(w, st) })
}

// Load reads a checkpoint written by Save. It decodes as it reads, so every
// allocation is backed by bytes already read, and it verifies the CRC
// trailer before returning the state.
func Load(r io.Reader) (*State, error) {
	fr, err := frame.NewReader(r, magic, ErrBadFormat)
	if err != nil {
		return nil, err
	}
	if fr.Version != Version {
		return nil, fr.Errorf("unsupported format version %d", fr.Version)
	}
	st := &State{}
	var epochsDone, retries, numStats int32
	if err := fr.Get("header", &st.ConfigHash, &st.LRScale, &epochsDone, &retries, &numStats); err != nil {
		return nil, err
	}
	if epochsDone < 0 || retries < 0 || numStats < 0 {
		return nil, fr.Errorf("implausible counters %d/%d/%d", epochsDone, retries, numStats)
	}
	st.EpochsDone, st.Retries = int(epochsDone), int(retries)
	for range numStats {
		var loss float64
		var ns int64
		if err := fr.Get("stats", &loss, &ns); err != nil {
			return nil, err
		}
		st.EpochLoss = append(st.EpochLoss, loss)
		st.EpochNanos = append(st.EpochNanos, ns)
	}
	var numRec int32
	if err := fr.Get("recoveries", &numRec); err != nil {
		return nil, err
	}
	if numRec < 0 {
		return nil, fr.Errorf("implausible recovery count %d", numRec)
	}
	for range numRec {
		var epoch int32
		var rec Recovery
		var reinit byte
		if err := fr.Get("recoveries", &epoch, &rec.LRScale, &reinit); err != nil {
			return nil, err
		}
		if reinit > 1 {
			return nil, fr.Errorf("recovery reinit flag %d", reinit)
		}
		rec.Epoch, rec.Reinit = int(epoch), reinit == 1
		st.Recoveries = append(st.Recoveries, rec)
	}
	var numWorkers int32
	if err := fr.Get("RNG states", &st.Root, &st.Order, &numWorkers); err != nil {
		return nil, err
	}
	if numWorkers < 0 {
		return nil, fr.Errorf("implausible worker count %d", numWorkers)
	}
	for range numWorkers {
		var w [4]uint64
		if err := fr.Get("RNG states", &w); err != nil {
			return nil, err
		}
		st.Workers = append(st.Workers, w)
	}
	var storeLen int64
	if err := fr.Get("store length", &storeLen); err != nil {
		return nil, err
	}
	if st.Store, err = embed.Load(io.LimitReader(fr, storeLen)); err != nil {
		return nil, fr.Errorf("store section: %v", err)
	}
	// Save nests the v2 layout, whose length SaveSize gives; any other
	// version is not what Save writes.
	if want := st.Store.SaveSize(); storeLen != want {
		return nil, fr.Errorf("store section %d bytes, a saved store is %d", storeLen, want)
	}
	if err := fr.Trailer(); err != nil {
		return nil, err
	}
	if err := fr.End(); err != nil {
		return nil, err
	}
	return st, nil
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return Load(bufio.NewReader(f))
}
