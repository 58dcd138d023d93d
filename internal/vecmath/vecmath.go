// Package vecmath provides the dense float32 vector kernels and sigmoid
// machinery used by every embedding model in this repository (Inf2vec,
// Emb-IC, MF/BPR, node2vec).
//
// The package follows the word2vec implementation idiom: embeddings are
// float32 for cache density, hot loops operate on raw slices, and the
// logistic function used inside SGD is served from a precomputed lookup
// table (an EXP_TABLE) because sigmoid evaluation dominates training cost
// otherwise. Exact float64 variants are also provided for evaluation code,
// where accuracy matters more than speed.
//
// The kernels are Go, except that the update sweep of the SGD block step
// (AxpyRows) runs in AVX assembly on amd64 CPUs that support it, with lanes
// as coordinates and bit-identical results; the comment at the top of
// kernels.go states the bitwise contracts and the CPU check.
package vecmath

import "math"

// Zero sets a to all zeros.
func Zero(a []float32) {
	for i := range a {
		a[i] = 0
	}
}

// Copy copies src into dst. It panics if the lengths differ.
func Copy(dst, src []float32) {
	if len(dst) != len(src) {
		panic("vecmath: Copy length mismatch")
	}
	copy(dst, src)
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0 if
// either vector is zero. Norms and the norm product are computed in float64:
// in float32, na*nb overflows to +Inf around norms of 1e19 and the similarity
// silently collapses to 0, which large-norm vectors (e.g. diverging models
// fed to ANN clustering) would otherwise hit.
func CosineSimilarity(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: CosineSimilarity length mismatch")
	}
	var sa, sb, dot float64
	for i, v := range a {
		x, y := float64(v), float64(b[i])
		sa += x * x
		sb += y * y
		dot += x * y
	}
	if sa == 0 || sb == 0 {
		return 0
	}
	return float32(dot / (math.Sqrt(sa) * math.Sqrt(sb)))
}

// Sigmoid is the exact logistic function 1/(1+e^-x), computed in float64 and
// safe for any finite input.
func Sigmoid(x float64) float64 {
	// Evaluate in the numerically stable branch to avoid overflow of exp.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// LogSigmoid returns log(sigmoid(x)) without underflow: for very negative x
// it approaches x rather than -Inf-via-log(0).
func LogSigmoid(x float64) float64 {
	if x >= 0 {
		return -math.Log1p(math.Exp(-x))
	}
	return x - math.Log1p(math.Exp(x))
}

// Sigmoid lookup table, word2vec style: tabulate sigmoid over
// [-maxExp, +maxExp] and clamp outside. Training gradients saturate to 0/1
// beyond |x| = 6 anyway, so the clamp loses nothing that SGD cares about.
const (
	maxExp       = 6.0
	expTableSize = 4096
)

// expTable samples sigmoid at the left edge of each bin; logSigTable samples
// log-sigmoid at the midpoint, which halves the worst-case error of a
// monotone function and centers it, so summing many terms does not drift.
var expTable, logSigTable [expTableSize]float32

func init() {
	for i := range expTable {
		x := (float64(i)/expTableSize*2 - 1) * maxExp
		expTable[i] = float32(Sigmoid(x))
		logSigTable[i] = float32(LogSigmoid(x + maxExp/expTableSize)) // half a bin up
	}
}

// FastSigmoid returns the logistic value read from the lookup table, clamped
// to the table's first/last entries outside (-6, 6). Its absolute error
// versus the exact sigmoid is at most 7.33e-4 inside (-6, 6) and 2.48e-3
// outside, where the clamps return sigmoid(-6) and sigmoid(5.997); both are
// immaterial for SGD. NaN maps to the first entry, as if it were a large
// negative logit.
func FastSigmoid(x float32) float32 {
	if x >= maxExp {
		return expTable[expTableSize-1]
	}
	if x <= -maxExp {
		return expTable[0]
	}
	idx := int((x + maxExp) * (expTableSize / (2 * maxExp)))
	if idx < 0 {
		idx = 0
	} else if idx >= expTableSize {
		idx = expTableSize - 1
	}
	// The mask is an identity after the clamp (idx ∈ [0, 4095]) but, unlike
	// the clamp itself, it is something the compiler's prove pass can verify,
	// so the table lookup compiles without a bounds check even when this
	// function is inlined into the fused SGD kernels.
	return expTable[idx&(expTableSize-1)]
}

// FastLogSigmoid returns log(sigmoid(x)) from a table on FastSigmoid's grid.
// Its absolute error versus LogSigmoid is at most 1.5e-3 inside (-6, 6) and
// 2.5e-3 outside: x >= 6 returns the last entry, about -2.48e-3, and
// x <= -6 returns x itself, the linear tail, so a confidently wrong logit
// keeps its full loss. NaN and -Inf fail both range tests and come back
// unchanged, so a non-finite logit still shows in a summed loss.
func FastLogSigmoid(x float32) float32 {
	if x >= maxExp {
		return logSigTable[expTableSize-1]
	}
	if x > -maxExp {
		idx := int((x + maxExp) * (expTableSize / (2 * maxExp)))
		if idx >= expTableSize { // x just below maxExp can round up to the end
			idx = expTableSize - 1
		}
		return logSigTable[idx&(expTableSize-1)]
	}
	return x
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("vecmath: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
