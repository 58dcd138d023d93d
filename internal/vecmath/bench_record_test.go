// Bench recorder for the vecmath hot-path kernels: measures dot / axpy /
// score / sgd-pass ns/op at the dimensions the models actually train at
// (d ∈ {32, 64, 128}), fp32 kernels against their pre-refactor scalar
// shapes and int8 against fp32, plus the int8 model-memory reduction. It
// measures only when INF2VEC_WRITE_BENCH is set, and then writes the report
// to BENCH_vecmath.json (repo root, or INF2VEC_BENCH_DIR) after enforcing
// the acceptance bounds; the benchgate CI leg then compares fresh numbers to
// the committed file.
//
// External test package on purpose: the memory metrics need internal/embed,
// which imports vecmath — an in-package test would be an import cycle.
package vecmath_test

import (
	"testing"
	"time"

	"inf2vec/internal/benchgate"
	"inf2vec/internal/embed"
	"inf2vec/internal/rng"
	"inf2vec/internal/vecmath"
)

// sink defeats dead-code elimination of pure-function benchmark bodies.
var sink float32

// scalarDot is the pre-refactor Dot: single-accumulator range loop. The
// speedup metrics are measured against these shapes, not against a strawman.
func scalarDot(a, b []float32) float32 {
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// scalarAxpy is the pre-refactor Axpy: a += alpha*b, one range loop.
func scalarAxpy(alpha float32, b, a []float32) {
	for i, v := range b {
		a[i] += alpha * v
	}
}

// measure returns the best-of-rounds ns/op of f over iters calls. Best (not
// mean) of several short rounds is the standard way to shave scheduler and
// clock-drift noise off sub-100ns kernels.
func measure(iters, rounds int, f func()) float64 {
	best := time.Duration(1 << 62)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(iters)
}

// randVec returns an n-vector of small random coordinates.
func randVec(r *rng.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = (r.Float32() - 0.5) * 0.2
	}
	return v
}

// benchDim measures every kernel at one dimension and folds the numbers
// into report; it returns the d-speedups the acceptance bounds check.
func benchDim(t *testing.T, d int, report map[string]any) (dotSpeedup, axpySpeedup float64) {
	t.Helper()
	r := rng.New(uint64(d) * 31)
	a, b := randVec(r, d), randVec(r, d)
	qa, qb := make([]int8, d), make([]int8, d)
	sa := vecmath.QuantizeRow(a, qa)
	vecmath.QuantizeRow(b, qb)

	// Iteration counts sized so each round runs a few milliseconds.
	iters, rounds := 1_000_000, 5
	label := map[int]string{32: "d32", 64: "d64", 128: "d128"}[d]

	dotScalar := measure(iters, rounds, func() { sink += scalarDot(a, b) })
	dotFP := measure(iters, rounds, func() { sink += vecmath.Dot(a, b) })
	var isink int32
	dotInt8 := measure(iters, rounds, func() { isink += vecmath.Int8Dot(qa, qb) })

	x := make([]float32, d)
	copy(x, a)
	axpyScalar := measure(iters, rounds, func() { scalarAxpy(0.001, b, x) })
	axpyFP := measure(iters, rounds, func() { vecmath.Axpy(0.001, b, x) })

	// sgdPass: one negative-sampling SGD example — forward score through
	// the table sigmoid, then both gradient rows. The scalar shape is what
	// applyExample compiled to before the fused kernels: a scalar dot, the
	// same sigmoid, and two separate scalar update loops.
	grad := make([]float32, d)
	y := make([]float32, d)
	copy(y, b)
	sgdScalar := measure(iters/2, rounds, func() {
		z := scalarDot(x, y)
		g := (1 - vecmath.FastSigmoid(z)) * 0.025
		scalarAxpy(g, y, grad)
		scalarAxpy(g, x, y)
	})
	sgdFused := measure(iters/2, rounds, func() {
		_, sig := vecmath.DotSigmoid(x, y)
		g := (1 - sig) * 0.025
		vecmath.AxpyTwo(g, y, grad, x, y)
	})
	sink += grad[0] + y[0] + sa + float32(isink)

	report["dot_scalar_"+label+"_ns"] = dotScalar
	report["dot_fp32_"+label+"_ns"] = dotFP
	report["dot_int8_"+label+"_ns"] = dotInt8
	report["dot_speedup_"+label] = dotScalar / dotFP
	report["axpy_scalar_"+label+"_ns"] = axpyScalar
	report["axpy_fp32_"+label+"_ns"] = axpyFP
	report["axpy_speedup_"+label] = axpyScalar / axpyFP
	report["sgd_pass_scalar_"+label+"_ns"] = sgdScalar
	report["sgd_pass_fused_"+label+"_ns"] = sgdFused
	report["sgd_pass_speedup_"+label] = sgdScalar / sgdFused
	t.Logf("d=%d: dot %.1f→%.1f ns (%.2fx, int8 %.1f), axpy %.1f→%.1f ns (%.2fx), sgd %.1f→%.1f ns (%.2fx)",
		d, dotScalar, dotFP, dotScalar/dotFP, dotInt8,
		axpyScalar, axpyFP, axpyScalar/axpyFP,
		sgdScalar, sgdFused, sgdScalar/sgdFused)
	return dotScalar / dotFP, axpyScalar / axpyFP
}

// benchScore measures full pair scoring — the eval/serving hot path — fp32
// store vs int8 quantized store at one dimension, over many rows so the
// working set behaves like a real model rather than two cached vectors.
func benchScore(t *testing.T, d int, report map[string]any) {
	t.Helper()
	const n = 4096
	st, err := embed.New(n, d)
	if err != nil {
		t.Fatal(err)
	}
	st.Init(rng.New(uint64(d)))
	q, _ := embed.Quantize(st)
	label := map[int]string{32: "d32", 64: "d64", 128: "d128"}[d]

	var fsink float64
	iters, rounds := 200_000, 5
	u := int32(0)
	scoreFP := measure(iters, rounds, func() {
		fsink += st.Score(u&(n-1), (u*7+13)&(n-1))
		u++
	})
	u = 0
	scoreInt8 := measure(iters, rounds, func() {
		fsink += q.Score(u&(n-1), (u*7+13)&(n-1))
		u++
	})
	sink += float32(fsink)

	report["score_fp32_"+label+"_ns"] = scoreFP
	report["score_int8_"+label+"_ns"] = scoreInt8
	t.Logf("d=%d: score fp32 %.1f ns, int8 %.1f ns", d, scoreFP, scoreInt8)
}

// TestRecordVecmathBench, when INF2VEC_WRITE_BENCH is set, measures the
// kernel suite and records BENCH_vecmath.json, enforcing the acceptance
// bounds first: at d=64 the blocked Dot and the unrolled Axpy
// must each be at least 1.5x their pre-refactor scalar shapes, and the int8
// model representation at least 3.4x smaller than fp32.
//
// The memory bound is 3.4x, not the >= 6x the issue originally asked for:
// that figure is arithmetically out of reach from an fp32 baseline — int8
// codes cap the ratio at 4x, and per-row scales plus float32 biases land
// d=64 at exactly 3.61x. The bound sits just under that measured point
// (DESIGN.md §12 documents the deviation).
//
// Without INF2VEC_WRITE_BENCH it measures nothing: the measurement takes
// seconds and, unrecorded, checks nothing.
func TestRecordVecmathBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench recording skipped in -short mode")
	}
	if !benchgate.Recording() {
		t.Log("not measured: set INF2VEC_WRITE_BENCH=1 to measure the kernels and write BENCH_vecmath.json")
		return
	}

	report := map[string]any{
		"benchmark":            "vecmath_kernels",
		"go_test_generated_by": "internal/vecmath.TestRecordVecmathBench (INF2VEC_WRITE_BENCH=1)",
	}
	var dot64, axpy64 float64
	for _, d := range []int{32, 64, 128} {
		ds, as := benchDim(t, d, report)
		benchScore(t, d, report)
		if d == 64 {
			dot64, axpy64 = ds, as
		}
	}

	// Model-memory reduction at the paper's d=64, resident bytes per the
	// same accounting /debug/statz reports.
	st, err := embed.New(100_000, 64)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := embed.Quantize(st)
	fpBytes, qBytes := st.Bytes(), q.Bytes()
	reduction := float64(fpBytes) / float64(qBytes)
	report["model_bytes_fp32_d64"] = float64(fpBytes)
	report["model_bytes_int8_d64"] = float64(qBytes)
	report["memory_reduction_d64"] = reduction
	t.Logf("model memory at d=64: fp32 %d B, int8 %d B (%.2fx)", fpBytes, qBytes, reduction)

	if dot64 < 1.5 {
		t.Fatalf("acceptance failed: dot speedup at d=64 is %.2fx, want >= 1.5x", dot64)
	}
	if axpy64 < 1.5 {
		t.Fatalf("acceptance failed: axpy speedup at d=64 is %.2fx, want >= 1.5x", axpy64)
	}
	if reduction < 3.4 {
		t.Fatalf("acceptance failed: memory reduction %.2fx, want >= 3.4x", reduction)
	}
	benchgate.Record(t, "BENCH_vecmath.json", report)
}
