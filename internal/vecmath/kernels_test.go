package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// Scalar reference implementations: the pre-blocking kernels, so the tests
// below can pin the blocked versions against them — bitwise for the serial
// family, within float tolerance for the reassociated family. The bitwise
// references round each product like the kernels do, so that gc cannot fuse
// them on arm64 either.

func scalarDot(a, b []float32) float32 {
	var s float32
	for i, v := range a {
		s += float32(v * b[i])
	}
	return s
}

func scalarAxpy(alpha float32, b, a []float32) {
	for i, v := range b {
		a[i] += float32(alpha * v)
	}
}

func scalarSquaredDistance(a, b []float32) float32 {
	var s float32
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// randVec returns a deterministic pseudo-random vector with entries in
// [-spread, spread].
func randVec(rng *rand.Rand, n int, spread float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32((rng.Float64()*2 - 1) * spread)
	}
	return v
}

// tailLengths covers every unroll remainder (0..3) around several block
// counts, plus the empty and single-element cases.
var tailLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 50, 63, 64, 65, 127, 128}

func TestDotMatchesFloat64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range tailLengths {
		a, b := randVec(rng, n, 2), randVec(rng, n, 2)
		var want float64
		for i := range a {
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		// The blocked float32 sum may differ from the float64 reference by
		// rounding only; scale tolerance with length.
		eps := 1e-4 * float64(n+1)
		if math.Abs(got-want) > eps {
			t.Errorf("n=%d: Dot = %g, float64 reference %g", n, got, want)
		}
	}
}

// TestDotSigmoidBitwiseSerial pins the bitwise contract the SGD hot loop
// depends on: DotSigmoid's logit must equal the original one-accumulator
// scalar loop exactly — not approximately — for any length, and the sigmoid
// must be FastSigmoid of that exact logit.
func TestDotSigmoidBitwiseSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range tailLengths {
		for trial := 0; trial < 8; trial++ {
			a, b := randVec(rng, n, 3), randVec(rng, n, 3)
			want := scalarDot(a, b)
			z, sig := DotSigmoid(a, b)
			if math.Float32bits(z) != math.Float32bits(want) {
				t.Fatalf("n=%d: DotSigmoid z = %x, scalar dot = %x (not bitwise identical)",
					n, math.Float32bits(z), math.Float32bits(want))
			}
			if sig != FastSigmoid(want) {
				t.Fatalf("n=%d: DotSigmoid sig = %v, FastSigmoid(z) = %v", n, sig, FastSigmoid(want))
			}
		}
	}
}

func TestDotBiasSigmoidBitwiseSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range tailLengths {
		a, b := randVec(rng, n, 3), randVec(rng, n, 3)
		bias := float32(rng.Float64()*2 - 1)
		want := scalarDot(a, b) + bias
		z, sig := DotBiasSigmoid(a, b, bias)
		if math.Float32bits(z) != math.Float32bits(want) {
			t.Fatalf("n=%d: DotBiasSigmoid z = %x, scalar z = %x", n, math.Float32bits(z), math.Float32bits(want))
		}
		if sig != FastSigmoid(want) {
			t.Fatalf("n=%d: DotBiasSigmoid sig mismatch", n)
		}
	}
}

// TestAxpyBitwiseScalar pins that the unrolled Axpy performs exactly the
// scalar loop's updates (elementwise, so no reassociation is possible).
func TestAxpyBitwiseScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range tailLengths {
		b := randVec(rng, n, 3)
		a := randVec(rng, n, 3)
		want := append([]float32(nil), a...)
		alpha := float32(rng.Float64()*2 - 1)
		scalarAxpy(alpha, b, want)
		Axpy(alpha, b, a)
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: Axpy[%d] = %x, scalar %x", n, i, math.Float32bits(a[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestAxpyTwoBitwiseSequential pins AxpyTwo against the unfused two-Axpy
// sequence, including the SGD aliasing case where b is the same slice as x
// (the T_x row is both the source of the a-update and the target of the
// b-update).
func TestAxpyTwoBitwiseSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range tailLengths {
		for _, alias := range []bool{false, true} {
			alpha := float32(rng.Float64()*2 - 1)
			x := randVec(rng, n, 3)
			a := randVec(rng, n, 3)
			y := randVec(rng, n, 3)
			var b []float32
			if alias {
				b = x
			} else {
				b = randVec(rng, n, 3)
			}

			wantA := append([]float32(nil), a...)
			wantX := append([]float32(nil), x...)
			wantY := append([]float32(nil), y...)
			wantB := wantX
			if !alias {
				wantB = append([]float32(nil), b...)
			}
			scalarAxpy(alpha, wantX, wantA)
			scalarAxpy(alpha, wantY, wantB)

			AxpyTwo(alpha, x, a, y, b)
			for i := range a {
				if math.Float32bits(a[i]) != math.Float32bits(wantA[i]) {
					t.Fatalf("n=%d alias=%v: a[%d] = %x, want %x", n, alias, i,
						math.Float32bits(a[i]), math.Float32bits(wantA[i]))
				}
				if math.Float32bits(b[i]) != math.Float32bits(wantB[i]) {
					t.Fatalf("n=%d alias=%v: b[%d] = %x, want %x", n, alias, i,
						math.Float32bits(b[i]), math.Float32bits(wantB[i]))
				}
			}
		}
	}
}

// rowsOf returns n distinct random rows of length d.
func rowsOf(rng *rand.Rand, n, d int) [][]float32 {
	rows := make([][]float32, n)
	for k := range rows {
		rows[k] = randVec(rng, d, 3)
	}
	return rows
}

// TestDotRowsBitwiseSerial pins DotRows to the one-accumulator scalar dot of
// each row, at every row count around the six-row grouping and every
// length around the scalar kernels' unroll.
func TestDotRowsBitwiseSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range tailLengths {
		for rowCount := 0; rowCount <= 13; rowCount++ {
			x := randVec(rng, n, 3)
			rows := rowsOf(rng, rowCount, n)
			out := make([]float32, rowCount)
			DotRows(x, rows, out)
			for k, r := range rows {
				if want := scalarDot(x, r); math.Float32bits(out[k]) != math.Float32bits(want) {
					t.Fatalf("n=%d rows=%d: out[%d] = %x, scalar dot %x", n, rowCount, k,
						math.Float32bits(out[k]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestAxpyRowsBitwiseSequential pins the coordinate-major AxpyRows against
// the row-by-row sequence it replaces: with zero set, acc zeroed first; for
// each row in order, the gradient accumulation acc += g·row followed by the
// row update row += g·x; and with apply set, x += acc once at the end.
func TestAxpyRowsBitwiseSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range tailLengths {
		for rowCount := 0; rowCount <= 13; rowCount++ {
			for _, zero := range []bool{false, true} {
				for _, apply := range []bool{false, true} {
					x := randVec(rng, n, 3)
					acc := randVec(rng, n, 3)
					rows := rowsOf(rng, rowCount, n)
					g := randVec(rng, rowCount, 1)

					wantX := append([]float32(nil), x...)
					wantAcc := append([]float32(nil), acc...)
					if zero {
						Zero(wantAcc)
					}
					wantRows := make([][]float32, rowCount)
					for k, r := range rows {
						wantRows[k] = append([]float32(nil), r...)
						scalarAxpy(g[k], wantRows[k], wantAcc)
						scalarAxpy(g[k], wantX, wantRows[k])
					}
					if apply {
						scalarAxpy(1, wantAcc, wantX)
					}

					AxpyRows(g, rows, x, acc, zero, apply)
					for i := range acc {
						if math.Float32bits(acc[i]) != math.Float32bits(wantAcc[i]) {
							t.Fatalf("n=%d rows=%d zero=%v apply=%v: acc[%d] = %x, want %x", n, rowCount, zero, apply, i,
								math.Float32bits(acc[i]), math.Float32bits(wantAcc[i]))
						}
						if math.Float32bits(x[i]) != math.Float32bits(wantX[i]) {
							t.Fatalf("n=%d rows=%d zero=%v apply=%v: x[%d] = %x, want %x", n, rowCount, zero, apply, i,
								math.Float32bits(x[i]), math.Float32bits(wantX[i]))
						}
					}
					for k := range rows {
						for i := range rows[k] {
							if math.Float32bits(rows[k][i]) != math.Float32bits(wantRows[k][i]) {
								t.Fatalf("n=%d rows=%d zero=%v apply=%v: rows[%d][%d] = %x, want %x", n, rowCount, zero, apply, k, i,
									math.Float32bits(rows[k][i]), math.Float32bits(wantRows[k][i]))
							}
						}
					}
				}
			}
		}
	}
}

// benchBlocks returns the rows of a 2000×50 matrix, the shape of the
// digg-like model's target matrix, laid out contiguously as a store lays
// them out, and 1024 sets of six distinct row indices into it.
func benchBlocks() (rows [][]float32, blocks [][rowGroup]int) {
	const users, dim = 2000, 50
	rng := rand.New(rand.NewSource(12))
	m := randVec(rng, users*dim, 1)
	rows = make([][]float32, users)
	for u := range rows {
		rows[u] = m[u*dim : (u+1)*dim : (u+1)*dim]
	}
	blocks = make([][rowGroup]int, 1024)
	for i := range blocks {
		copy(blocks[i][:], rng.Perm(users))
	}
	return rows, blocks
}

// BenchmarkAxpyRows times the six-row update sweep at K=50: the Go kernel
// and AxpyRows, which runs the kernel it selects at start-up (assembly
// where the CPU has AVX), on the same blocks.
func BenchmarkAxpyRows(b *testing.B) {
	m, blocks := benchBlocks()
	rng := rand.New(rand.NewSource(13))
	x, acc, g := randVec(rng, len(m[0]), 1), make([]float32, len(m[0])), randVec(rng, rowGroup, 1e-3)
	rows := make([][]float32, rowGroup)
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := &blocks[i%len(blocks)]
			axpy6Rows(g[0], g[1], g[2], g[3], g[4], g[5],
				m[r[0]], m[r[1]], m[r[2]], m[r[3]], m[r[4]], m[r[5]], x, acc, false)
		}
	})
	b.Run("selected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, r := range blocks[i%len(blocks)] {
				rows[k] = m[r]
			}
			AxpyRows(g, rows, x, acc, false, false)
		}
	})
}

// BenchmarkDotRows times the six-row forward sweep at K=50 on the blocks
// BenchmarkAxpyRows uses: the Go kernel and DotRows, which runs the kernel
// it selects at start-up (assembly where the CPU has AVX).
func BenchmarkDotRows(b *testing.B) {
	m, blocks := benchBlocks()
	x := randVec(rand.New(rand.NewSource(13)), len(m[0]), 1)
	rows, out := make([][]float32, rowGroup), make([]float32, rowGroup)
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := &blocks[i%len(blocks)]
			out[0], out[1], out[2], out[3], out[4], out[5] = dot6Serial(x,
				m[r[0]], m[r[1]], m[r[2]], m[r[3]], m[r[4]], m[r[5]])
		}
	})
	b.Run("selected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, r := range blocks[i%len(blocks)] {
				rows[k] = m[r]
			}
			DotRows(x, rows, out)
		}
	})
}

func TestSquaredDistanceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range tailLengths {
		a, b := randVec(rng, n, 2), randVec(rng, n, 2)
		want := float64(scalarSquaredDistance(a, b))
		got := SquaredDistance(a, b)
		if math.Abs(got-want) > 1e-4*float64(n+1) {
			t.Errorf("n=%d: SquaredDistance = %g, scalar %g", n, got, want)
		}
	}
}

// TestSquaredDistanceLargeNorms is the overflow regression for the float64
// accumulation fix: with coordinates around 2e19 the old float32 kernel
// squared each difference to +Inf (float32 tops out near 3.4e38), so ANN
// k-means on a diverged model compared every pair of rows as "equally
// infinitely far". The float64 kernel returns the exact finite distance.
func TestSquaredDistanceLargeNorms(t *testing.T) {
	a := []float32{2e19, 0, -2e19, 1}
	b := []float32{-2e19, 1e3, 2e19, 1}
	got := SquaredDistance(a, b)
	want := 4e19*4e19 + 1e3*1e3 + 4e19*4e19
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("large-norm SquaredDistance = %v, want finite ~%g", got, want)
	}
	// Inputs are float32, so expect float32-level relative accuracy.
	if math.Abs(got-want)/want > 1e-6 {
		t.Errorf("large-norm SquaredDistance = %g, want %g", got, want)
	}
	// The old kernel also lost low bits far before overflowing: a distance of
	// (1e10)^2 + 1^2 must keep the +1 visible in float64.
	got = SquaredDistance([]float32{1e10, 1}, []float32{0, 0})
	if got != 1e20+1 {
		t.Errorf("precision case = %v, want 1e20+1", got)
	}
}

func TestKernelPanicsOnMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with mismatched lengths did not panic", name)
			}
		}()
		f()
	}
	one, two := []float32{1}, []float32{1, 2}
	mustPanic("DotSigmoid", func() { DotSigmoid(one, two) })
	mustPanic("DotBiasSigmoid", func() { DotBiasSigmoid(one, two, 0) })
	mustPanic("AxpyTwo", func() { AxpyTwo(1, one, two, one, one) })
	mustPanic("DotRows out", func() { DotRows(one, [][]float32{one}, two) })
	mustPanic("DotRows row", func() { DotRows(one, [][]float32{one, one, one, one, one, two}, make([]float32, 6)) })
	mustPanic("DotRows tail row", func() { DotRows(one, [][]float32{two}, one) })
	mustPanic("AxpyRows g", func() { AxpyRows(two, [][]float32{one}, one, one, false, false) })
	mustPanic("AxpyRows row", func() {
		AxpyRows(make([]float32, 6), [][]float32{one, two, one, one, one, one}, one, one, false, false)
	})
	mustPanic("AxpyRows tail row", func() { AxpyRows(one, [][]float32{two}, one, one, false, false) })
	mustPanic("AxpyRows acc", func() { AxpyRows(one, [][]float32{one}, one, two, false, true) })
	mustPanic("AxpyRows group acc", func() {
		AxpyRows(make([]float32, 6), [][]float32{one, one, one, one, one, one}, one, two, true, false)
	})
	mustPanic("SquaredDistance", func() { SquaredDistance(one, two) })
	mustPanic("Int8Dot", func() { Int8Dot([]int8{1}, []int8{1, 2}) })
	mustPanic("QuantizeRow", func() { QuantizeRow(one, []int8{1, 2}) })
	mustPanic("DequantizeRow", func() { DequantizeRow([]int8{1}, 1, two) })
}

func TestQuantizeRowRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range tailLengths {
		if n == 0 {
			continue
		}
		row := randVec(rng, n, 5)
		q := make([]int8, n)
		scale := QuantizeRow(row, q)
		out := make([]float32, n)
		DequantizeRow(q, scale, out)
		// Symmetric rounding bounds the per-coordinate error by scale/2.
		bound := float64(scale)/2 + 1e-7
		for i := range row {
			if err := math.Abs(float64(row[i]) - float64(out[i])); err > bound {
				t.Fatalf("n=%d: coord %d error %g exceeds scale/2 = %g", n, i, err, bound)
			}
		}
		// The max-magnitude coordinate must hit ±127 exactly.
		var maxAbs float32
		var maxCode int8
		for i, v := range row {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
			if c := q[i]; c > maxCode {
				maxCode = c
			} else if -c > maxCode {
				maxCode = -c
			}
		}
		if maxAbs > 0 && maxCode != 127 {
			t.Fatalf("n=%d: max code %d, want 127", n, maxCode)
		}
	}
}

func TestQuantizeRowZeroAndNonFinite(t *testing.T) {
	q := make([]int8, 4)
	out := make([]float32, 4)

	if scale := QuantizeRow([]float32{0, 0, 0, 0}, q); scale != 0 {
		t.Errorf("zero-row scale = %v, want 0", scale)
	}
	DequantizeRow(q, 0, out)
	for _, v := range out {
		if v != 0 {
			t.Errorf("zero row dequantized to %v", out)
		}
	}
	// Exact zero codes: zero survives round trip exactly even in mixed rows.
	row := []float32{1, 0, -1, 0.5}
	scale := QuantizeRow(row, q)
	DequantizeRow(q, scale, out)
	if out[1] != 0 {
		t.Errorf("exact zero became %v after round trip", out[1])
	}

	for _, bad := range [][]float32{
		{1, float32(math.NaN()), 2, 3},
		{1, float32(math.Inf(1)), 2, 3},
		{float32(math.Inf(-1)), 0, 0, 0},
	} {
		scale := QuantizeRow(bad, q)
		if !math.IsNaN(float64(scale)) {
			t.Errorf("non-finite row %v: scale = %v, want NaN", bad, scale)
		}
		for _, c := range q {
			if c != 0 {
				t.Errorf("non-finite row %v: codes %v, want zeros", bad, q)
			}
		}
		DequantizeRow(q, scale, out)
		for _, v := range out {
			if !math.IsNaN(float64(v)) {
				t.Errorf("non-finite row dequantized to %v, want all-NaN", out)
			}
		}
	}
}

func TestInt8DotExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range tailLengths {
		a := make([]int8, n)
		b := make([]int8, n)
		var want int64
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
			want += int64(a[i]) * int64(b[i])
		}
		if got := Int8Dot(a, b); int64(got) != want {
			t.Errorf("n=%d: Int8Dot = %d, want %d", n, got, want)
		}
	}
	// Worst case magnitude: all ±127 pairs at length 128 — must not overflow.
	a := make([]int8, 128)
	b := make([]int8, 128)
	for i := range a {
		a[i], b[i] = 127, -127
	}
	if got := Int8Dot(a, b); got != -127*127*128 {
		t.Errorf("worst case = %d, want %d", got, -127*127*128)
	}
}
