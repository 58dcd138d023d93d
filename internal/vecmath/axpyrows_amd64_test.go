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

func parityOperand(rng *rand.Rand) float32 {
	if rng.Intn(8) == 0 {
		return specialFloats[rng.Intn(len(specialFloats))]
	}
	return float32(rng.NormFloat64())
}

// TestAxpy6RowsAVXMatchesGo runs the assembly sweep against the Go kernel on
// every length from 0 to 70 (both sides of the 8-wide loop and every tail),
// with and without apply. Every result that is not NaN must match in bits,
// and a result must be NaN exactly where the Go kernel's is; only NaN
// payloads may differ (see axpy6RowsAVX). Each operand sits in a buffer
// with 8 guard values after it, which must stay untouched.
func TestAxpy6RowsAVXMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this CPU or OS: AxpyRows runs the Go kernel, so there is no assembly kernel to compare")
	}
	const guard = 8
	rng := rand.New(rand.NewSource(11))
	cases := 0
	for n := 0; n <= 70; n++ {
		for _, apply := range []bool{false, true} {
			for trial := 0; trial < 141; trial++ {
				var c [rowGroup]float32
				for k := range c {
					c[k] = parityOperand(rng)
				}
				// Operands 0-5 are the rows, 6 is x and 7 is acc.
				var want, got [rowGroup + 2][]float32
				for j := range want {
					buf := make([]float32, n+guard)
					for i := range buf {
						buf[i] = parityOperand(rng)
					}
					want[j], got[j] = buf, slices.Clone(buf)
				}
				axpy6Rows(c[0], c[1], c[2], c[3], c[4], c[5], want[0][:n], want[1][:n], want[2][:n],
					want[3][:n], want[4][:n], want[5][:n], want[6][:n], want[7][:n], apply)
				axpy6(c[0], c[1], c[2], c[3], c[4], c[5], got[0][:n], got[1][:n], got[2][:n],
					got[3][:n], got[4][:n], got[5][:n], got[6][:n], got[7][:n], apply)
				for j := range want {
					for i, w := range want[j] {
						g := got[j][i]
						same := math.Float32bits(g) == math.Float32bits(w)
						if math.IsNaN(float64(w)) {
							same = math.IsNaN(float64(g))
						}
						if !same {
							t.Fatalf("n=%d apply=%v trial=%d: operand %d [%d] = %x, Go kernel %x (c=%v)",
								n, apply, trial, j, i, math.Float32bits(g), math.Float32bits(w), c)
						}
					}
				}
				cases++
			}
		}
	}
	t.Logf("%d cases", cases)
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
