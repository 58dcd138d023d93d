package embed

import (
	"fmt"
	"io"
	"math"

	"inf2vec/internal/atomicfile"
	"inf2vec/internal/frame"
	"inf2vec/internal/vecmath"
)

// Format version 3: per-row symmetric int8 quantization. The framing follows
// v2 (magic, version byte, reserved zero, int32 shape, CRC-32 trailer); the
// body replaces the two float32 matrices with int8 code matrices plus one
// float32 scale per row:
//
//	magic "I2VEMB" | version byte (3) | reserved zero byte |
//	int32 n | int32 k |
//	scaleS [n]float32 | scaleT [n]float32 |
//	biasS  [n]float32 | biasT  [n]float32 |
//	qSource [n*k]int8 | qTarget [n*k]int8 |
//	uint32 CRC-32 (IEEE) of every preceding byte
//
// Scales and biases come before the code matrices so a torn publish of a
// large model fails in the small fixed-size region with a precise offset
// rather than deep inside megabytes of codes. Row r of a matrix dequantizes
// as float32(code)*scale[r]; see vecmath.QuantizeRow for the scale choice
// (symmetric maxabs/127, exact zeros, NaN scale for non-finite rows) and the
// two reserved degenerate encodings.
//
// Per-row bytes at dimension k: 2k (codes) + 16 (two scales + two biases),
// against 8k + 8 for fp32 v2 — 3.6x smaller at k=64, approaching the 4x
// float32→int8 ceiling as k grows.
const quantVersion = 3

// Precision selects the on-disk / in-memory representation of a model.
type Precision int

const (
	// PrecisionFP32 is the full float32 representation (format v2).
	PrecisionFP32 Precision = iota
	// PrecisionInt8 is the per-row symmetric int8 representation (format v3).
	PrecisionInt8
)

// String returns the flag-value spelling of p.
func (p Precision) String() string {
	switch p {
	case PrecisionFP32:
		return "fp32"
	case PrecisionInt8:
		return "int8"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision parses the -model-precision flag values "fp32" and "int8".
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "fp32":
		return PrecisionFP32, nil
	case "int8":
		return PrecisionInt8, nil
	}
	return 0, fmt.Errorf("embed: unknown precision %q (want fp32 or int8)", s)
}

// QuantStats summarizes the reconstruction error introduced by one Quantize
// call, measured per coordinate over both embedding matrices (biases are
// stored exactly). Non-finite rows are excluded from the error figures and
// counted separately.
type QuantStats struct {
	// MaxAbsErr is the largest |original - dequantized| over all finite
	// coordinates.
	MaxAbsErr float64
	// RMSErr is the root-mean-square of the per-coordinate error.
	RMSErr float64
	// NonFiniteRows counts embedding rows containing NaN/±Inf, which encode
	// to a NaN scale and dequantize to all-NaN.
	NonFiniteRows int
}

// QuantizedStore is the int8 view of an embedding model: it scores pairs and
// answers the ANN index's vector queries without ever materializing the full
// float32 matrices, at ~2k+16 bytes per user instead of 8k+8.
//
// The zero-allocation read path is Score (pure int8 arithmetic rescaled by
// the two row scales); SourceVec/TargetVec dequantize one row into a fresh
// slice per call, which also makes them safe for the ANN builder's
// concurrent shard workers.
type QuantizedStore struct {
	n int32
	k int

	qSource []int8 // n rows of k codes
	qTarget []int8
	scaleS  []float32 // one scale per row
	scaleT  []float32
	biasS   []float32 // exact, as in the fp32 store
	biasT   []float32
}

// Quantize converts a float32 store to its int8 representation, returning the
// reconstruction error stats alongside.
func Quantize(s *Store) (*QuantizedStore, QuantStats) {
	q := &QuantizedStore{
		n:       s.n,
		k:       s.k,
		qSource: make([]int8, len(s.source)),
		qTarget: make([]int8, len(s.target)),
		scaleS:  make([]float32, s.n),
		scaleT:  make([]float32, s.n),
		biasS:   append([]float32(nil), s.biasS...),
		biasT:   append([]float32(nil), s.biasT...),
	}
	var st QuantStats
	var sumSq float64
	var coords int64
	quantMatrix := func(rows []float32, codes []int8, scales []float32) {
		for u := int32(0); u < s.n; u++ {
			off := int(u) * s.k
			row := rows[off : off+s.k]
			qrow := codes[off : off+s.k]
			scale := vecmath.QuantizeRow(row, qrow)
			scales[u] = scale
			if math.IsNaN(float64(scale)) {
				st.NonFiniteRows++
				continue
			}
			for i, v := range row {
				err := math.Abs(float64(v) - float64(qrow[i])*float64(scale))
				if err > st.MaxAbsErr {
					st.MaxAbsErr = err
				}
				sumSq += err * err
			}
			coords += int64(s.k)
		}
	}
	quantMatrix(s.source, q.qSource, q.scaleS)
	quantMatrix(s.target, q.qTarget, q.scaleT)
	if coords > 0 {
		st.RMSErr = math.Sqrt(sumSq / float64(coords))
	}
	return q, st
}

// NumUsers returns the user universe size.
func (q *QuantizedStore) NumUsers() int32 { return q.n }

// Dim returns the embedding dimension K.
func (q *QuantizedStore) Dim() int { return q.k }

// Score returns x(u,v) = S_u · T_v + b_u + b̃_v evaluated on the quantized
// rows: the exact int32 code product rescaled by the two row scales. A row
// with a NaN scale (non-finite original) yields a NaN score, matching the
// diverged fp32 model's behavior.
func (q *QuantizedStore) Score(u, v int32) float64 {
	uo, vo := int(u)*q.k, int(v)*q.k
	dot := vecmath.Int8Dot(q.qSource[uo:uo+q.k], q.qTarget[vo:vo+q.k])
	return float64(q.scaleS[u])*float64(q.scaleT[v])*float64(dot) +
		float64(q.biasS[u]) + float64(q.biasT[v])
}

// SourceVec returns the dequantized source row S_u as a fresh slice.
func (q *QuantizedStore) SourceVec(u int32) []float32 {
	off := int(u) * q.k
	out := make([]float32, q.k)
	vecmath.DequantizeRow(q.qSource[off:off+q.k], q.scaleS[u], out)
	return out
}

// TargetVec returns the dequantized target row T_u as a fresh slice. The
// per-call allocation makes concurrent callers (the ANN builder's shard
// workers) safe by construction.
func (q *QuantizedStore) TargetVec(u int32) []float32 {
	off := int(u) * q.k
	out := make([]float32, q.k)
	vecmath.DequantizeRow(q.qTarget[off:off+q.k], q.scaleT[u], out)
	return out
}

// BiasSource returns a pointer to the influence-ability bias b_u.
func (q *QuantizedStore) BiasSource(u int32) *float32 { return &q.biasS[u] }

// BiasTarget returns a pointer to the conformity bias b̃_u.
func (q *QuantizedStore) BiasTarget(u int32) *float32 { return &q.biasT[u] }

// Bytes returns the resident size of the quantized parameters.
func (q *QuantizedStore) Bytes() int64 {
	return int64(len(q.qSource)) + int64(len(q.qTarget)) +
		4*int64(len(q.scaleS)+len(q.scaleT)+len(q.biasS)+len(q.biasT))
}

// Dequantize materializes the full float32 store.
func (q *QuantizedStore) Dequantize() *Store {
	s := &Store{
		n:      q.n,
		k:      q.k,
		source: make([]float32, len(q.qSource)),
		target: make([]float32, len(q.qTarget)),
		biasS:  append([]float32(nil), q.biasS...),
		biasT:  append([]float32(nil), q.biasT...),
	}
	for u := int32(0); u < q.n; u++ {
		off := int(u) * q.k
		vecmath.DequantizeRow(q.qSource[off:off+q.k], q.scaleS[u], s.source[off:off+q.k])
		vecmath.DequantizeRow(q.qTarget[off:off+q.k], q.scaleT[u], s.target[off:off+q.k])
	}
	return s
}

// SaveSize returns the exact number of bytes Save will write.
func (q *QuantizedStore) SaveSize() int64 {
	return quantSaveSize(int64(q.n), int64(q.k))
}

func quantSaveSize(n, k int64) int64 {
	return 8 + 8 + 16*n + 2*n*k + 4
}

// saveBody writes everything up to (not including) the CRC trailer.
func (q *QuantizedStore) saveBody(w io.Writer) *frame.Writer {
	fw := frame.NewWriter(w, storeMagic, quantVersion)
	fw.Put([2]int32{q.n, int32(q.k)}, q.scaleS, q.scaleT, q.biasS, q.biasT, q.qSource, q.qTarget)
	return fw
}

// Save writes the store to w in format v3, including the CRC-32 trailer.
func (q *QuantizedStore) Save(w io.Writer) error {
	if err := q.saveBody(w).Trailer(); err != nil {
		return fmt.Errorf("embed: save: %w", err)
	}
	return nil
}

// SaveFile atomically and durably writes the store to path, with the same
// crash-safety contract as Store.SaveFile.
func (q *QuantizedStore) SaveFile(path string) error {
	return atomicfile.WriteTo(path, q.Save)
}

// Checksum returns the CRC-32 (IEEE) of the serialized v3 body — the value
// Save records in the trailer.
func (q *QuantizedStore) Checksum() uint32 {
	return q.saveBody(io.Discard).Sum()
}

// SavePrecision writes the store to w at the requested precision: the
// bit-exact v2 format for PrecisionFP32, or quantized v3 for PrecisionInt8.
func (s *Store) SavePrecision(w io.Writer, p Precision) error {
	switch p {
	case PrecisionFP32:
		return s.Save(w)
	case PrecisionInt8:
		q, _ := Quantize(s)
		return q.Save(w)
	}
	return fmt.Errorf("embed: save: unknown precision %v", p)
}

// SaveFilePrecision is SaveFile at the requested precision.
func (s *Store) SaveFilePrecision(path string, p Precision) error {
	if p == PrecisionFP32 {
		return s.SaveFile(path)
	}
	q, _ := Quantize(s)
	return q.SaveFile(path)
}

// LoadQuantized reads one store from r, consuming it exactly, and returns it
// in quantized form: a v3 file verbatim (bit-preserving, so
// Save→LoadQuantized→Save round-trips to identical bytes), or a v1/v2 file
// quantized in memory — in which case the reconstruction error stats of that
// conversion are returned alongside (nil for verbatim v3 input, where the
// original float32 values no longer exist to compare against). The last
// result is the file's checksum, as LoadSum defines it.
func LoadQuantized(r io.Reader) (*QuantizedStore, *QuantStats, uint32, error) {
	s, q, sum, err := decode(r)
	if err != nil || q != nil {
		return q, nil, sum, err
	}
	q, st := Quantize(s)
	return q, &st, sum, nil
}

// decodeQuant reads the v3 body that follows the header. v3 always carries
// a CRC trailer, and every scale must be non-negative finite or NaN (the
// reserved non-finite-row encoding); a negative or infinite scale is
// corruption even when the CRC matches, and is rejected before any caller
// can observe partial state.
func decodeQuant(fr *frame.Reader) (*QuantizedStore, error) {
	n, k, err := readShape(fr)
	if err != nil {
		return nil, err
	}
	q := &QuantizedStore{n: n, k: k}
	if q.scaleS, err = frame.Block[float32](fr, int64(n), "source scales"); err != nil {
		return nil, err
	}
	if q.scaleT, err = frame.Block[float32](fr, int64(n), "target scales"); err != nil {
		return nil, err
	}
	if q.biasS, err = frame.Block[float32](fr, int64(n), "source biases"); err != nil {
		return nil, err
	}
	if q.biasT, err = frame.Block[float32](fr, int64(n), "target biases"); err != nil {
		return nil, err
	}
	if q.qSource, err = frame.Block[int8](fr, int64(n)*int64(k), "source codes"); err != nil {
		return nil, err
	}
	if q.qTarget, err = frame.Block[int8](fr, int64(n)*int64(k), "target codes"); err != nil {
		return nil, err
	}
	if err := fr.Trailer(); err != nil {
		return nil, err
	}
	for name, scales := range map[string][]float32{"source": q.scaleS, "target": q.scaleT} {
		for u, sc := range scales {
			if sc < 0 || math.IsInf(float64(sc), 0) {
				return nil, fr.Errorf("invalid %s scale %v at row %d", name, sc, u)
			}
		}
	}
	return q, nil
}
