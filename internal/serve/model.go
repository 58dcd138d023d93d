package serve

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"inf2vec/internal/ann"
	"inf2vec/internal/embed"
	"inf2vec/internal/eval"
)

// modelData is the read surface both model precisions expose. *embed.Store
// (fp32) and *embed.QuantizedStore (int8) each satisfy it, and it is a
// superset of both eval.PairScorer (Score) and ann.Source (the target-side
// accessors), so the scoring facade and the ANN index build against either
// representation without knowing which precision is serving.
type modelData interface {
	NumUsers() int32
	Dim() int
	SourceVec(u int32) []float32
	TargetVec(v int32) []float32
	BiasTarget(v int32) *float32
	Score(u, v int32) float64
	// Bytes is the resident size of the parameter arrays, for /debug/statz.
	Bytes() int64
}

var (
	_ modelData = (*embed.Store)(nil)
	_ modelData = (*embed.QuantizedStore)(nil)
)

// model is one immutable loaded embedding model plus its scoring facade and
// provenance metadata. Handlers grab the current *model once per request
// from the server's atomic pointer, so a concurrent reload can never tear a
// response across two stores.
type model struct {
	data      modelData
	scorer    *eval.Scorer
	precision embed.Precision
	// qstats is the quantization error of an int8 model, measured at load
	// against the fp32 store it was quantized from. It is nil for fp32
	// models and for int8 models loaded verbatim from a v3 file, where the
	// fp32 original is not available to measure against.
	qstats *embed.QuantStats
	path   string
	size   int64
	// crc is the file's checksum as the loader reports it: the CRC trailer
	// of a v2 or v3 file, which is the CRC-32 of every byte before it, or
	// the CRC-32 of a whole v1 file, which has no trailer. /debug/statz
	// reports it, the seeds cache keys on it and it seeds the ANN index.
	crc      uint32
	loadedAt time.Time

	// index is the ANN top-k index over this store, built at load when the
	// server runs in ivf mode; nil in exact mode. It lives and dies with its
	// model: a hot reload swaps store, scorer and index as one unit, so a
	// request can never rescore one model's candidates against another's
	// scores.
	index      *ann.Index
	indexBuild time.Duration
}

// loadModel reads and validates the store file and, in ivf mode, builds the
// model's ANN index — all fully off the request path, for both the initial
// load and SIGHUP reloads. An index build failure fails the whole load: in
// ivf mode a model without its index is not servable, and on reload the
// previous model (with its index) keeps serving.
func (s *Server) loadModel(path string) (*model, error) {
	m, err := readModel(path, s.precision)
	if err != nil {
		return nil, err
	}
	if s.cfg.TopKIndex == TopKIndexIVF {
		if err := s.buildIndex(m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return m, nil
}

// readModel reads and validates the store file at the requested precision.
// The file is slurped first so validation sees one consistent byte snapshot
// even if the file is replaced mid-read, and the loader verifies magic,
// version, exact framing and the format's CRC-32 trailer before any swap.
//
// Precision and file format are independent: fp32 mode dequantizes a v3
// (int8) file into full float32 rows, and int8 mode quantizes a v1/v2 (fp32)
// file at load — recording the measured quantization error — while a v3 file
// is served verbatim, codes and scales untouched.
func readModel(path string, precision embed.Precision) (*model, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &model{precision: precision, path: path, size: int64(len(raw))}
	if precision == embed.PrecisionInt8 {
		m.data, m.qstats, m.crc, err = embed.LoadQuantized(bytes.NewReader(raw))
	} else {
		m.data, m.crc, err = embed.LoadSum(bytes.NewReader(raw))
	}
	if err != nil {
		return nil, fmt.Errorf("validating %s: %w", path, err)
	}
	if m.scorer, err = eval.NewScorer(m.data, m.data.NumUsers()); err != nil {
		return nil, err
	}
	m.loadedAt = time.Now()
	return m, nil
}
