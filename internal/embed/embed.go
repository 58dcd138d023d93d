// Package embed implements the embedding parameter store shared by the
// latent representation models in this repository.
//
// A Store holds, for each user u of a fixed universe, the paper's four
// parameter groups (Definition 2): a source embedding S_u (the capability to
// influence others), a target embedding T_u (the tendency to be influenced),
// an influence-ability bias b_u, and a conformity bias b̃_u. The pair score
//
//	x(u,v) = S_u · T_v + b_u + b̃_v
//
// is the building block of both training (Eq. 3/4) and prediction (Eq. 7).
//
// Vectors are exposed as mutable sub-slices of two flat float32 arrays so
// that SGD updates touch contiguous memory. Concurrent updates of different
// rows are safe. The store has no lock, so updates of one row must not
// run concurrently: Inf2vec's stratified SGD pass runs concurrently only
// cells that touch disjoint rows and biases, and trainer.Pass commits the
// baselines' updates serially.
//
// A store persists as one file framed by internal/frame (magic "I2VEMB")
// in one of three versions: v2, the float32 layout Save writes; v3, the
// int8 layout of QuantizedStore; and v1, the float32 layout without a CRC
// trailer, still read. Load, LoadSum and LoadQuantized read every version
// and convert between precisions; LoadSum and LoadQuantized also return the
// file's checksum. Reads are exact (trailing bytes are an error) and
// allocate only as the bytes arrive, and every failure wraps ErrBadFormat.
package embed

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"inf2vec/internal/atomicfile"
	"inf2vec/internal/frame"
	"inf2vec/internal/rng"
	"inf2vec/internal/vecmath"
)

// Store holds the per-user parameters of one embedding model.
type Store struct {
	n int32
	k int

	source []float32 // n rows of k: S_u
	target []float32 // n rows of k: T_u
	biasS  []float32 // b_u, influence-ability bias
	biasT  []float32 // b̃_u, conformity bias
}

// New allocates a zeroed store for n users with dimension k.
func New(n int32, k int) (*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("embed: user universe %d must be positive", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("embed: dimension %d must be positive", k)
	}
	return &Store{
		n:      n,
		k:      k,
		source: make([]float32, int(n)*k),
		target: make([]float32, int(n)*k),
		biasS:  make([]float32, n),
		biasT:  make([]float32, n),
	}, nil
}

// NumUsers returns the user universe size.
func (s *Store) NumUsers() int32 { return s.n }

// Dim returns the embedding dimension K.
func (s *Store) Dim() int { return s.k }

// Init draws every embedding coordinate from U[-1/K, 1/K] and zeroes both
// biases, matching Algorithm 2 line 1.
func (s *Store) Init(r *rng.RNG) {
	scale := 1 / float32(s.k)
	for i := range s.source {
		s.source[i] = (2*r.Float32() - 1) * scale
	}
	for i := range s.target {
		s.target[i] = (2*r.Float32() - 1) * scale
	}
	for i := range s.biasS {
		s.biasS[i] = 0
		s.biasT[i] = 0
	}
}

// SourceVec returns the mutable source embedding row S_u.
func (s *Store) SourceVec(u int32) []float32 {
	off := int(u) * s.k
	return s.source[off : off+s.k : off+s.k]
}

// TargetVec returns the mutable target embedding row T_u.
func (s *Store) TargetVec(u int32) []float32 {
	off := int(u) * s.k
	return s.target[off : off+s.k : off+s.k]
}

// BiasSource returns a pointer to the influence-ability bias b_u.
func (s *Store) BiasSource(u int32) *float32 { return &s.biasS[u] }

// BiasTarget returns a pointer to the conformity bias b̃_u.
func (s *Store) BiasTarget(u int32) *float32 { return &s.biasT[u] }

// Score returns x(u,v) = S_u · T_v + b_u + b̃_v.
func (s *Store) Score(u, v int32) float64 {
	return float64(vecmath.Dot(s.SourceVec(u), s.TargetVec(v))) +
		float64(s.biasS[u]) + float64(s.biasT[v])
}

// Concat returns the 2K-dimensional concatenation [S_u ; T_u] used for
// visualization (§V-B3) as a fresh slice.
func (s *Store) Concat(u int32) []float32 {
	out := make([]float32, 2*s.k)
	copy(out, s.SourceVec(u))
	copy(out[s.k:], s.TargetVec(u))
	return out
}

// SampleNonFinite reports whether a strided sample of up to maxPerBlock
// coordinates per parameter block contains NaN or ±Inf. A full scan per
// epoch would be wasteful at production scale; non-finite values spread
// across whole rows within one SGD pass, so a strided probe catches real
// divergence reliably.
func (s *Store) SampleNonFinite(maxPerBlock int) bool {
	if maxPerBlock < 1 {
		maxPerBlock = 1
	}
	for _, block := range [][]float32{s.source, s.target, s.biasS, s.biasT} {
		stride := len(block)/maxPerBlock + 1
		for i := 0; i < len(block); i += stride {
			if f := float64(block[i]); math.IsNaN(f) || math.IsInf(f, 0) {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the store. Used for in-memory rollback
// snapshots during divergence recovery.
func (s *Store) Clone() *Store {
	return &Store{
		n:      s.n,
		k:      s.k,
		source: append([]float32(nil), s.source...),
		target: append([]float32(nil), s.target...),
		biasS:  append([]float32(nil), s.biasS...),
		biasT:  append([]float32(nil), s.biasT...),
	}
}

// CopyPrefix overwrites the parameters of the first src.NumUsers() users of
// s with src's values, leaving any remaining rows untouched. The dimensions
// must match and src's universe must not exceed s's. It is the warm-start
// primitive of the streaming pipeline: a model over a fixed universe seeds
// the next incremental retrain, while rows the previous model never saw keep
// their fresh random initialization.
func (s *Store) CopyPrefix(src *Store) error {
	if src.k != s.k || src.n > s.n {
		return fmt.Errorf("embed: prefix copy shape mismatch: %dx%d into %dx%d", src.n, src.k, s.n, s.k)
	}
	rows := int(src.n) * s.k
	copy(s.source[:rows], src.source)
	copy(s.target[:rows], src.target)
	copy(s.biasS[:src.n], src.biasS)
	copy(s.biasT[:src.n], src.biasT)
	return nil
}

// Checksum returns the CRC-32 (IEEE) of the store's serialized body — the
// exact value Save records in the file's CRC trailer. (Checksumming the
// whole file including the trailer would be useless as a fingerprint: the
// CRC of a message concatenated with its own CRC is the constant residue
// 0x2144df1c for every store.) It is a cheap content fingerprint: the
// pipeline records it beside its resume offset so a restart can tell
// whether the model on disk is the one the offset was committed for, and
// the trainer folds it into the checkpoint fingerprint when a run is
// warm-started from an existing store.
func (s *Store) Checksum() uint32 {
	return s.saveBody(io.Discard).Sum()
}

// CopyFrom overwrites every parameter of s with the values from src. The two
// stores must have identical shape.
func (s *Store) CopyFrom(src *Store) error {
	if s.n != src.n || s.k != src.k {
		return fmt.Errorf("embed: copy shape mismatch: %dx%d vs %dx%d", s.n, s.k, src.n, src.k)
	}
	copy(s.source, src.source)
	copy(s.target, src.target)
	copy(s.biasS, src.biasS)
	copy(s.biasT, src.biasT)
	return nil
}

// Binary persistence, framed by internal/frame:
//
//	magic "I2VEMB" | version byte (2) | reserved zero byte |
//	int32 n | int32 k | source | target | biasS | biasT |
//	uint32 CRC-32 (IEEE) of every preceding byte
//
// with all floats little-endian float32. The CRC trailer (new in version 2)
// lets a hot-reloading server reject a bit-flipped or torn model file before
// swapping it in; version-1 files (no trailer) are still read for backward
// compatibility. Version 3 (quant.go) is the int8 layout.
var storeMagic = [6]byte{'I', '2', 'V', 'E', 'M', 'B'}

// storeVersion is the current format version written by Save;
// legacyVersion is the oldest version Load still accepts.
const (
	storeVersion  = 2
	legacyVersion = 1
)

// ErrBadFormat is returned by Load when the input is not a store written by
// Save (wrong magic, unsupported version, bad header, truncated body, or
// trailing garbage).
var ErrBadFormat = errors.New("embed: not a valid embedding store file")

// Bytes returns the resident size of the float32 parameters: both embedding
// matrices plus both bias vectors. The int8 counterpart is
// (*QuantizedStore).Bytes; together they let the serving layer report model
// memory per precision from one method.
func (s *Store) Bytes() int64 {
	return 4 * (2*int64(s.n)*int64(s.k) + 2*int64(s.n))
}

// SaveSize returns the exact number of bytes Save will write, so containers
// (checkpoints) can frame the store section without buffering it.
func (s *Store) SaveSize() int64 {
	return 8 + 8 + 4*(2*int64(s.n)*int64(s.k)+2*int64(s.n)) + 4 // + CRC trailer
}

// saveBody writes everything up to (not including) the CRC trailer.
func (s *Store) saveBody(w io.Writer) *frame.Writer {
	fw := frame.NewWriter(w, storeMagic, storeVersion)
	fw.Put([2]int32{s.n, int32(s.k)}, s.source, s.target, s.biasS, s.biasT)
	return fw
}

// Save writes the store to w in the package binary format, including the
// CRC-32 trailer.
func (s *Store) Save(w io.Writer) error {
	if err := s.saveBody(w).Trailer(); err != nil {
		return fmt.Errorf("embed: save: %w", err)
	}
	return nil
}

// SaveFile atomically and durably writes the store to path: the bytes land
// in a temporary file in the destination directory, are fsynced, the file is
// renamed over path, and the directory is fsynced so the rename survives a
// machine crash. A process hot-reloading the path therefore observes either
// the previous model or the complete new one, never a torn, empty or
// un-published write.
func (s *Store) SaveFile(path string) error {
	// Save's own errors already carry the "embed: save" context; atomicfile
	// annotates the temp/rename/sync steps with the paths involved.
	return atomicfile.WriteTo(path, s.Save)
}

// Load reads a store written by Save, consuming r exactly: any bytes after
// the body are rejected as trailing garbage. A store nested in a larger
// stream is read through an io.LimitReader of its length. Version-3 (int8
// quantized) inputs are dequantized into a full float32 store; use
// LoadQuantized to keep the compact representation.
func Load(r io.Reader) (*Store, error) {
	s, _, err := LoadSum(r)
	return s, err
}

// LoadSum is Load that also returns the file's checksum: its CRC trailer for
// versions 2 and 3 (for a file Save wrote, the trailer equals Checksum), and
// the CRC-32 of the whole file for a legacy version-1 file, which has none.
func LoadSum(r io.Reader) (*Store, uint32, error) {
	s, q, sum, err := decode(r)
	if q != nil {
		s = q.Dequantize()
	}
	return s, sum, err
}

// LoadFile reads a store from path.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("embed: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// decode reads one store of any supported version from r, exactly: a
// float32 store for v1/v2, a quantized store for v3, and the file checksum
// (see LoadSum). Version-2 and -3 trailers are verified. Allocation is
// read-driven: a truncated or corrupt header can never demand more memory
// than the stream actually delivers.
func decode(r io.Reader) (*Store, *QuantizedStore, uint32, error) {
	fr, err := frame.NewReader(r, storeMagic, ErrBadFormat)
	if err != nil {
		return nil, nil, 0, err
	}
	var s *Store
	var q *QuantizedStore
	switch fr.Version {
	case legacyVersion, storeVersion:
		s, err = decodeFP32(fr)
	case quantVersion:
		q, err = decodeQuant(fr)
	default:
		err = fr.Errorf("unsupported format version %d", fr.Version)
	}
	if err == nil {
		err = fr.End()
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return s, q, fr.Sum(), nil
}

// decodeFP32 reads the v1/v2 body that follows the header.
func decodeFP32(fr *frame.Reader) (*Store, error) {
	n, k, err := readShape(fr)
	if err != nil {
		return nil, err
	}
	s := &Store{n: n, k: k}
	if s.source, err = frame.Block[float32](fr, int64(n)*int64(k), "source embeddings"); err != nil {
		return nil, err
	}
	if s.target, err = frame.Block[float32](fr, int64(n)*int64(k), "target embeddings"); err != nil {
		return nil, err
	}
	if s.biasS, err = frame.Block[float32](fr, int64(n), "source biases"); err != nil {
		return nil, err
	}
	if s.biasT, err = frame.Block[float32](fr, int64(n), "target biases"); err != nil {
		return nil, err
	}
	if fr.Version == legacyVersion {
		return s, nil
	}
	return s, fr.Trailer()
}

// readShape reads and validates the (n, k) header that follows the magic.
func readShape(fr *frame.Reader) (int32, int, error) {
	var shape [2]int32
	if err := fr.Get("header", &shape); err != nil {
		return 0, 0, err
	}
	n, k := shape[0], shape[1]
	if n <= 0 || k <= 0 {
		return 0, 0, fr.Errorf("bad shape %d x %d", n, k)
	}
	if int64(n)*int64(k) > 1<<31 {
		return 0, 0, fr.Errorf("implausible shape %d x %d", n, k)
	}
	return n, int(k), nil
}
