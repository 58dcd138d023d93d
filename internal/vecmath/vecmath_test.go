package vecmath

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float32
	}{
		{nil, nil, 0},
		{[]float32{1}, []float32{2}, 2},
		{[]float32{1, 2, 3}, []float32{4, 5, 6}, 32},
		{[]float32{1, -1}, []float32{1, 1}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestAxpy(t *testing.T) {
	a := []float32{1, 2, 3}
	Axpy(2, []float32{10, 20, 30}, a)
	want := []float32{21, 42, 63}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", a, want)
		}
	}
}

func TestZero(t *testing.T) {
	a := []float32{1, -2, 4}
	Zero(a)
	for _, v := range a {
		if v != 0 {
			t.Fatalf("Zero left %v", a)
		}
	}
}

func TestSquaredDistance(t *testing.T) {
	got := SquaredDistance([]float32{1, 2}, []float32{4, 6})
	if got != 25 {
		t.Errorf("SquaredDistance = %v, want 25", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float32{1, 0}, []float32{2, 0}); !almostEqual(float64(got), 1, 1e-6) {
		t.Errorf("parallel cosine = %v, want 1", got)
	}
	if got := CosineSimilarity([]float32{1, 0}, []float32{0, 3}); !almostEqual(float64(got), 0, 1e-6) {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := CosineSimilarity([]float32{0, 0}, []float32{1, 1}); got != 0 {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}

// TestCosineSimilarityLargeNorms pins the float64 overflow fix: with norms
// around 2e19 the float32 product na*nb is +Inf, and the old float32 division
// silently returned 0 for vectors that are far from orthogonal. The same
// product is exactly representable in float64.
func TestCosineSimilarityLargeNorms(t *testing.T) {
	a := []float32{2e19, 0}
	b := []float32{1e3, 2e19}
	// float64 reference: dot = 2e22, norms = 2e19 and ~2e19.
	want := 2e22 / (2e19 * math.Sqrt(1e6+4e38))
	got := float64(CosineSimilarity(a, b))
	if math.IsNaN(got) || math.IsInf(got, 0) || got == 0 {
		t.Fatalf("large-norm cosine = %v, want finite nonzero ~%g", got, want)
	}
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("large-norm cosine = %g, want %g", got, want)
	}
	// Identical huge vectors must still be exactly parallel, not Inf/NaN.
	if got := CosineSimilarity([]float32{3e19, 3e19}, []float32{3e19, 3e19}); !almostEqual(float64(got), 1, 1e-6) {
		t.Errorf("parallel large-norm cosine = %v, want 1", got)
	}
}

func TestSigmoidValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{100, 1},
		{-100, 0},
		{math.Log(3), 0.75},
	}
	for _, c := range cases {
		if got := Sigmoid(c.x); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Sigmoid(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// Property: sigmoid(-x) = 1 - sigmoid(x) and sigmoid is monotone.
func TestSigmoidSymmetryAndMonotonicity(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 500)
		s := Sigmoid(x)
		if s < 0 || s > 1 {
			return false
		}
		if !almostEqual(Sigmoid(-x), 1-s, 1e-12) {
			return false
		}
		return Sigmoid(x+1) >= s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSigmoidStability(t *testing.T) {
	// For large negative x, log(sigmoid(x)) ~= x.
	if got := LogSigmoid(-1000); !almostEqual(got, -1000, 1e-9) {
		t.Errorf("LogSigmoid(-1000) = %v, want -1000", got)
	}
	if got := LogSigmoid(1000); !almostEqual(got, 0, 1e-9) {
		t.Errorf("LogSigmoid(1000) = %v, want ~0", got)
	}
	if got := LogSigmoid(0); !almostEqual(got, math.Log(0.5), 1e-12) {
		t.Errorf("LogSigmoid(0) = %v, want log(1/2)", got)
	}
}

// sweepTableError returns fast's largest absolute error against exact over
// a dense float32 sweep of [-10, 10], split at the table's range (-6, 6),
// and its mean signed error inside that range.
func sweepTableError(fast func(float32) float32, exact func(float64) float64) (inside, outside, bias float64) {
	n := 0
	for i := -200000; i <= 200000; i++ {
		x := float32(float64(i) * 5e-5)
		err := float64(fast(x)) - exact(float64(x))
		if x > -maxExp && x < maxExp {
			inside = math.Max(inside, math.Abs(err))
			bias += err
			n++
		} else {
			outside = math.Max(outside, math.Abs(err))
		}
	}
	return inside, outside, bias / float64(n)
}

// edgeInputs are the inputs where a table lookup's range tests and index
// rounding can go wrong: the bin edges at ±6 and their float32 neighbours,
// and inputs far outside the table.
var edgeInputs = []float32{
	-1e30, -100, -6, math.Nextafter32(-6, 0), math.Nextafter32(6, 0), 6, 100, 1e30,
}

// TestFastSigmoidAccuracy pins FastSigmoid's documented error bounds: at
// most 7.33e-4 inside (-6, 6), where each bin returns its left edge, and
// 2.48e-3 outside, where the clamps return sigmoid(-6) and sigmoid(5.997).
func TestFastSigmoidAccuracy(t *testing.T) {
	inside, outside, _ := sweepTableError(FastSigmoid, Sigmoid)
	if inside > 7.33e-4 {
		t.Errorf("FastSigmoid max error inside (-6, 6) = %.3g, want <= 7.33e-4", inside)
	}
	if outside > 2.48e-3 {
		t.Errorf("FastSigmoid max error outside (-6, 6) = %.3g, want <= 2.48e-3", outside)
	}
	for _, x := range append(edgeInputs, float32(math.Inf(-1)), float32(math.Inf(1))) {
		if err := math.Abs(float64(FastSigmoid(x)) - Sigmoid(float64(x))); err > 2.48e-3 {
			t.Errorf("FastSigmoid(%v) error %.3g, want <= 2.48e-3", x, err)
		}
	}
}

// TestFastSigmoidClamps pins the clamps, NaN included: NaN fails both
// range tests and its index clamps to the first entry.
func TestFastSigmoidClamps(t *testing.T) {
	for _, tc := range []struct {
		x    float32
		want float32
	}{
		{1000, expTable[expTableSize-1]},
		{float32(math.Inf(1)), expTable[expTableSize-1]},
		{-1000, expTable[0]},
		{float32(math.Inf(-1)), expTable[0]},
		{float32(math.NaN()), expTable[0]},
	} {
		if got := FastSigmoid(tc.x); got != tc.want {
			t.Errorf("FastSigmoid(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

// TestFastLogSigmoidAccuracy pins FastLogSigmoid's documented error bounds
// and its near-zero mean bias inside the table, which midpoint sampling
// buys: a sum over many loss terms does not drift from the exact one.
func TestFastLogSigmoidAccuracy(t *testing.T) {
	inside, outside, bias := sweepTableError(FastLogSigmoid, LogSigmoid)
	if inside > 1.5e-3 {
		t.Errorf("FastLogSigmoid max error inside (-6, 6) = %.3g, want <= 1.5e-3", inside)
	}
	if outside > 2.5e-3 {
		t.Errorf("FastLogSigmoid max error outside (-6, 6) = %.3g, want <= 2.5e-3", outside)
	}
	if math.Abs(bias) > 1e-5 {
		t.Errorf("FastLogSigmoid mean error inside (-6, 6) = %.3g, want |bias| <= 1e-5", bias)
	}
	for _, x := range append(edgeInputs, float32(math.Inf(1))) {
		if err := math.Abs(float64(FastLogSigmoid(x)) - LogSigmoid(float64(x))); err > 2.5e-3 {
			t.Errorf("FastLogSigmoid(%v) error %.3g, want <= 2.5e-3", x, err)
		}
	}
}

// TestFastLogSigmoidTails pins the tails: x >= 6 returns the last entry,
// x <= -6 returns x itself, and NaN and -Inf come back unchanged. A loss
// that clamped NaN into the table would hide divergence from the trainer.
func TestFastLogSigmoidTails(t *testing.T) {
	last := logSigTable[expTableSize-1]
	for _, tc := range []struct {
		x, want float32
	}{
		{6, last},
		{1000, last},
		{float32(math.Inf(1)), last},
		{-6, -6},
		{-1000, -1000},
		{float32(math.Inf(-1)), float32(math.Inf(-1))},
	} {
		if got := FastLogSigmoid(tc.x); got != tc.want {
			t.Errorf("FastLogSigmoid(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := FastLogSigmoid(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Errorf("FastLogSigmoid(NaN) = %v, want NaN", got)
	}
}

// TestSigmoidTablesPinned pins the bits of both lookup tables. They are
// built at init from math.Exp and math.Log1p, and math.Exp is assembly that
// differs per architecture; a platform whose values differ fails here, at
// the table, rather than deep inside a golden training diff.
func TestSigmoidTablesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		table *[expTableSize]float32
		want  string
	}{
		{"expTable", &expTable, "8d4fa74c0fe2fafdc59a34cf399361e6399d59e33f3d523da3a9c9e2ce0c7ac1"},
		{"logSigTable", &logSigTable, "d3e9cdf476faa2a7cb30dd4f2e49844414f936fab1790de7ec2f9d40cb22f95b"},
	} {
		var buf []byte
		for _, v := range tc.table {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != tc.want {
			t.Errorf("%s SHA-256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestAggregateHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Max(xs); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := Sum(xs); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max(nil) did not panic")
		}
	}()
	Max(nil)
}

func BenchmarkDot50(b *testing.B) {
	x := make([]float32, 50)
	y := make([]float32, 50)
	for i := range x {
		x[i] = float32(i)
		y[i] = float32(50 - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkFastSigmoid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FastSigmoid(float32(i%12) - 6)
	}
}

// Sinks keep the compiler from deleting the benchmarked loss calls.
var (
	sinkLogSigmoid     float64
	sinkFastLogSigmoid float32
)

func BenchmarkLogSigmoid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkLogSigmoid += LogSigmoid(float64(i%12) - 6)
	}
}

func BenchmarkFastLogSigmoid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFastLogSigmoid += FastLogSigmoid(float32(i%12) - 6)
	}
}

func BenchmarkExactSigmoid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Sigmoid(float64(i%12) - 6)
	}
}
