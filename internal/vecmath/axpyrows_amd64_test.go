package vecmath

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// specialFloats are mixed into the parity test's random operands: signed
// zeros, denormals, infinities, NaN, and magnitudes whose products and sums
// overflow.
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	3.4e38, -3.4e38,
}

// parityOperand returns a random normal value, or one in oneIn times one of
// specialFloats.
func parityOperand(rng *rand.Rand, oneIn int) float32 {
	if rng.Intn(oneIn) == 0 {
		return specialFloats[rng.Intn(len(specialFloats))]
	}
	return float32(rng.NormFloat64())
}

// sameResult reports whether the assembly's result g matches the Go
// kernel's w: equal bits, or both NaN (see axpy6RowsAVX on NaN payloads).
func sameResult(g, w float32) bool {
	if math.IsNaN(float64(w)) {
		return math.IsNaN(float64(g))
	}
	return math.Float32bits(g) == math.Float32bits(w)
}

// parityGuard is how many values follow each operand of the parity tests in
// its buffer; the kernels must leave them untouched.
const parityGuard = 8

// parityBuffers returns count buffers of n+parityGuard parity operands.
func parityBuffers(rng *rand.Rand, count, n, oneIn int) [][]float32 {
	bufs := make([][]float32, count)
	for j := range bufs {
		bufs[j] = make([]float32, n+parityGuard)
		for i := range bufs[j] {
			bufs[j][i] = parityOperand(rng, oneIn)
		}
	}
	return bufs
}

// TestAxpy6RowsAVXMatchesGo runs the assembly sweep against the Go kernel on
// every length from 0 to 70 (both sides of the 8-wide loop and every tail),
// with and without zero and apply. Every result that is not NaN must match
// in bits, and a result must be NaN exactly where the Go kernel's is; only
// NaN payloads may differ (see axpy6RowsAVX). Each operand sits in a buffer
// with guard values after it, which must stay untouched.
func TestAxpy6RowsAVXMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this CPU or OS: AxpyRows runs the Go kernel, so there is no assembly kernel to compare")
	}
	rng := rand.New(rand.NewSource(11))
	cases := 0
	for n := 0; n <= 70; n++ {
		for _, zero := range []bool{false, true} {
			for _, apply := range []bool{false, true} {
				for trial := 0; trial < 141; trial++ {
					var c [rowGroup]float32
					for k := range c {
						c[k] = parityOperand(rng, 8)
					}
					// Operands 0-5 are the rows, 6 is x and 7 is acc.
					want := parityBuffers(rng, rowGroup+2, n, 8)
					got := make([][]float32, len(want))
					for j := range want {
						got[j] = slices.Clone(want[j])
					}
					if zero {
						Zero(want[7][:n])
					}
					axpy6Rows(c[0], c[1], c[2], c[3], c[4], c[5], want[0][:n], want[1][:n], want[2][:n],
						want[3][:n], want[4][:n], want[5][:n], want[6][:n], want[7][:n], apply)
					rows := [][]float32{got[0][:n], got[1][:n], got[2][:n], got[3][:n], got[4][:n], got[5][:n]}
					axpy6RowsAVX(&c[0], &rows[0], &got[6][0], &got[7][0], n, zero, apply)
					for j := range want {
						for i, w := range want[j] {
							if g := got[j][i]; !sameResult(g, w) {
								t.Fatalf("n=%d zero=%v apply=%v trial=%d: operand %d [%d] = %x, Go kernel %x (c=%v)",
									n, zero, apply, trial, j, i, math.Float32bits(g), math.Float32bits(w), c)
							}
						}
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestDot6RowsAVXMatchesGo runs the assembly forward sweep against
// dot6Serial on every length from 0 to 70 (both sides of the 8-wide loop,
// every tail, and the tail alone below 8). A third of the trials draw no
// special operand, a third one in 64 and a third one in 8, so that sums
// over long rows are finite often enough to compare bits. Every result that
// is not NaN must match in bits, and a result must be NaN exactly where the
// Go kernel's is. No input may change, and the guard values after out must
// stay untouched.
func TestDot6RowsAVXMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this CPU or OS: DotRows runs the Go kernel, so there is no assembly kernel to compare")
	}
	rng := rand.New(rand.NewSource(14))
	cases, finite := 0, 0
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 282; trial++ {
			oneIn := []int{1 << 30, 64, 8}[trial%3]
			// Operands 0-5 are the rows, 6 is x and 7 is out.
			in := parityBuffers(rng, rowGroup+2, n, oneIn)
			orig := make([][]float32, len(in))
			for j := range in {
				orig[j] = slices.Clone(in[j])
			}
			x, out := in[6], in[7]
			var want [rowGroup]float32
			want[0], want[1], want[2], want[3], want[4], want[5] = dot6Serial(x[:n],
				in[0][:n], in[1][:n], in[2][:n], in[3][:n], in[4][:n], in[5][:n])
			rows := [][]float32{in[0][:n], in[1][:n], in[2][:n], in[3][:n], in[4][:n], in[5][:n]}
			dot6RowsAVX(&x[0], &rows[0], &out[0], n)
			for k, w := range want {
				if g := out[k]; !sameResult(g, w) {
					t.Fatalf("n=%d trial=%d: out[%d] = %x, Go kernel %x", n, trial, k, math.Float32bits(g), math.Float32bits(w))
				}
				if !math.IsNaN(float64(w)) {
					finite++
				}
			}
			for j := range in {
				from := 0
				if j == 7 {
					from = rowGroup
				}
				for i := from; i < len(in[j]); i++ {
					if math.Float32bits(in[j][i]) != math.Float32bits(orig[j][i]) {
						t.Fatalf("n=%d trial=%d: operand %d [%d] changed from %x to %x", n, trial, j, i,
							math.Float32bits(orig[j][i]), math.Float32bits(in[j][i]))
					}
				}
			}
			cases++
		}
	}
	t.Logf("%d cases, %d of %d results not NaN", cases, finite, cases*rowGroup)
}

// TestAVXCheckAgreesWithCPUInfo checks the start-up AVX check against the
// CPU flags Linux reports, which list avx only when the OS saves the YMM
// state.
func TestAVXCheckAgreesWithCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx"); hasAVX != want {
			t.Errorf("hasAVX = %v, but the CPU flags say avx = %v", hasAVX, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
