package vecmath

// Blocked float32 kernels. Every kernel here follows the same discipline:
//
//   - one explicit length check up front (a mismatch is always a programming
//     error in this codebase);
//   - an unrolled main loop in the shrinking-window form — index the front
//     of the slices at constant offsets below the window width W, then
//     advance with a = a[W:] — plus a range-based tail behind a len guard.
//     On go1.24 this is the one unrolled shape the prove pass eliminates
//     ALL bounds checks for: constant indices below the `len >= W` loop
//     guard need no check, whereas step-W induction variables
//     (for ; i+W <= len(a); i += W) defeat prove entirely, leaving
//     per-element checks in the loop body. W is 8 for elementwise and
//     serial kernels (loop-control amortization) and 16 for the blocked
//     dot, which is throughput-bound once its add chain splits into lanes.
//
// Two accumulation disciplines coexist, and the distinction is load-bearing:
//
//   - BLOCKED kernels (Dot, SquaredDistance, Int8Dot) keep 4 independent
//     accumulators and combine them at the end. Reassociating the sum breaks
//     the serial add-latency chain — the bulk of the speedup on dot products
//     at d=64 — but changes the floating-point result in the last ulps. They
//     are for scoring, evaluation and ANN paths, where no golden fixture
//     pins bits.
//   - SERIAL kernels (DotSigmoid, DotBiasSigmoid, DotRows, AxpyRows and
//     every elementwise kernel) perform exactly the operations of the
//     pre-blocking scalar loops, in exactly the same order. Unrolling an
//     elementwise update or a single-accumulator chain does not touch the
//     result, and neither does interleaving several independent chains, so
//     these are safe in the SGD hot loop, which internal/core's golden test
//     pins bitwise against the original implementation. Go never
//     reassociates float expressions, but the spec lets it fuse x*y + z
//     into one FMA, and gc does so on arm64 (FMADDS). So every product in a
//     serial kernel is written float32(x*y): the explicit conversion rounds
//     the product, which the spec defines as preventing fusion. On amd64 the
//     conversion changes no instruction. TestSerialKernelsFMAFree
//     cross-compiles the package for arm64 and fails on any fused op in a
//     serial kernel.
//
// Both six-row sweeps of the SGD block step also have an assembly form
// (axpyrows_amd64.s), which DotRows and AxpyRows call directly on amd64
// when the CPU has AVX and the OS saves the YMM registers: CPUID leaf 1
// and XCR0, checked once at init into hasAVX. Each uses only AVX1
// instructions, a separate VMULPS and VADDPS for every product and sum (no
// FMA), and ends in VZEROUPPER.
//
//   - dot6RowsAVX, the forward sweep, makes each lane a row. It transposes
//     8 coordinates of the six rows into 8 columns and adds each column's
//     product with x in ascending coordinate order, so every lane sums
//     exactly dot6Serial's chain for its row.
//   - axpy6RowsAVX, the update sweep, makes each lane a coordinate, which
//     performs the Go loop's operations on it in the same order.
//
// Every result that is not NaN is bit-identical to the Go kernel's, and a
// result is NaN exactly where the Go kernel's is; only a NaN's sign and
// payload can differ, since x86 takes them from the first NaN operand and
// gc does not order the operands the same way for every row. Without AVX,
// and on every other GOARCH (where hasAVX is the constant false), the Go
// dot6Serial and axpy6Rows run; they are the references of
// TestDot6RowsAVXMatchesGo and TestAxpy6RowsAVXMatchesGo, and
// TestAssemblyKernelsFMAFree fails on any x86 fused op in the package's
// assembly.
//
// The guard test TestKernelsBoundsCheckFree (and the CI leg that runs it)
// compiles this package with -d=ssa/check_bce and diffs the remaining checks
// against testdata/bce_allowlist.txt, so a refactor cannot silently
// reintroduce per-element bounds checks in these loops.

// Dot returns the inner product of a and b, accumulated in 4 independent
// float32 lanes (reassociated — see the package comment on blocked vs serial
// kernels; use DotSigmoid in paths that must reproduce the serial sum). It
// panics if the lengths differ.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	// 16 elements per iteration, four per lane: once the add chain is split
	// across lanes the kernel is throughput-bound, so the remaining win is
	// amortizing loop control (two length checks + two reslices per
	// iteration) over as many elements as the training dims (32/64/128,
	// all multiples of 16) allow. A 4-wide middle loop catches remainders.
	var s0, s1, s2, s3 float32
	for len(a) >= 16 && len(b) >= 16 {
		s0 += a[0]*b[0] + a[4]*b[4] + a[8]*b[8] + a[12]*b[12]
		s1 += a[1]*b[1] + a[5]*b[5] + a[9]*b[9] + a[13]*b[13]
		s2 += a[2]*b[2] + a[6]*b[6] + a[10]*b[10] + a[14]*b[14]
		s3 += a[3]*b[3] + a[7]*b[7] + a[11]*b[11] + a[15]*b[15]
		a = a[16:]
		b = b[16:]
	}
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a = a[4:]
		b = b[4:]
	}
	if len(b) >= len(a) { // always true (equal lengths); lets prove drop the b[i] check
		for i, v := range a {
			s0 += v * b[i]
		}
	}
	return (s0 + s1) + (s2 + s3)
}

// dotSerial is the one-accumulator inner product, unrolled but NOT
// reassociated: it performs s += a[i]*b[i] in ascending index order, exactly
// like the original scalar loop, so its result is bit-identical to the
// pre-blocking Dot. The SGD fused kernels build on it.
func dotSerial(a, b []float32) float32 {
	var s float32
	for len(a) >= 8 && len(b) >= 8 {
		s += float32(a[0] * b[0])
		s += float32(a[1] * b[1])
		s += float32(a[2] * b[2])
		s += float32(a[3] * b[3])
		s += float32(a[4] * b[4])
		s += float32(a[5] * b[5])
		s += float32(a[6] * b[6])
		s += float32(a[7] * b[7])
		a = a[8:]
		b = b[8:]
	}
	if len(b) >= len(a) {
		for i, v := range a {
			s += float32(v * b[i])
		}
	}
	return s
}

// DotSigmoid returns z = a·b (serial one-accumulator order, bit-identical to
// the pre-blocking Dot) and FastSigmoid(z) in one call — the fused logit of
// the SGD gradient step for the bias-free configuration. It panics if the
// lengths differ.
func DotSigmoid(a, b []float32) (z, sig float32) {
	if len(a) != len(b) {
		panic("vecmath: DotSigmoid length mismatch")
	}
	z = dotSerial(a, b)
	return z, FastSigmoid(z)
}

// DotBiasSigmoid is DotSigmoid with a bias term added to the logit before
// the sigmoid: z = a·b + bias, computed exactly as the unfused sequence
// (serial dot, then one float32 add). It is the logit of the per-example SGD
// step that internal/core's block step is tested against.
func DotBiasSigmoid(a, b []float32, bias float32) (z, sig float32) {
	if len(a) != len(b) {
		panic("vecmath: DotBiasSigmoid length mismatch")
	}
	z = dotSerial(a, b) + bias
	return z, FastSigmoid(z)
}

// Axpy computes a += alpha*b in place. Elementwise, so the unrolled form is
// bit-identical to the scalar loop. It panics if the lengths differ.
func Axpy(alpha float32, b []float32, a []float32) {
	if len(a) != len(b) {
		panic("vecmath: Axpy length mismatch")
	}
	for len(a) >= 8 && len(b) >= 8 {
		a[0] += float32(alpha * b[0])
		a[1] += float32(alpha * b[1])
		a[2] += float32(alpha * b[2])
		a[3] += float32(alpha * b[3])
		a[4] += float32(alpha * b[4])
		a[5] += float32(alpha * b[5])
		a[6] += float32(alpha * b[6])
		a[7] += float32(alpha * b[7])
		a = a[8:]
		b = b[8:]
	}
	if len(a) >= len(b) {
		for i, v := range b {
			a[i] += float32(alpha * v)
		}
	}
}

// AxpyTwo fuses the SGD gradient step's pair of updates into one sweep:
//
//	a += alpha*x   (the S_u gradient accumulation, reading T_x)
//	b += alpha*y   (the T_x update, reading S_u)
//
// b may alias x — the hot-loop case, where the x read of each element happens
// before the b write of the same element, exactly as in the unfused
// two-Axpy sequence (the first Axpy writes only a, so the second sees the
// same b values either way; results are bit-identical). No other aliasing
// among the four slices is allowed. It panics if any length differs.
func AxpyTwo(alpha float32, x, a, y, b []float32) {
	if len(a) != len(x) || len(y) != len(x) || len(b) != len(x) {
		panic("vecmath: AxpyTwo length mismatch")
	}
	for len(x) >= 8 && len(a) >= 8 && len(y) >= 8 && len(b) >= 8 {
		a[0] += float32(alpha * x[0])
		b[0] += float32(alpha * y[0])
		a[1] += float32(alpha * x[1])
		b[1] += float32(alpha * y[1])
		a[2] += float32(alpha * x[2])
		b[2] += float32(alpha * y[2])
		a[3] += float32(alpha * x[3])
		b[3] += float32(alpha * y[3])
		a[4] += float32(alpha * x[4])
		b[4] += float32(alpha * y[4])
		a[5] += float32(alpha * x[5])
		b[5] += float32(alpha * y[5])
		a[6] += float32(alpha * x[6])
		b[6] += float32(alpha * y[6])
		a[7] += float32(alpha * x[7])
		b[7] += float32(alpha * y[7])
		x, a, y, b = x[8:], a[8:], y[8:], b[8:]
	}
	if len(a) >= len(x) && len(y) >= len(x) && len(b) >= len(x) {
		for i := range x {
			a[i] += float32(alpha * x[i])
			b[i] += float32(alpha * y[i])
		}
	}
}

// rowGroup is how many rows DotRows and AxpyRows sweep at once, the width
// of dot6Serial and axpy6Rows. Six independent add chains keep the adders
// busy instead of waiting one add latency per element; six row pointers,
// six coefficients and the accumulator still fit in registers on amd64 and
// arm64; and six is 1+|N| for the paper's |N| = 5 negatives, so a default
// block is one group. Rows beyond the last full group are swept one at a
// time.
const rowGroup = 6

// DotRows sets out[k] = x·rows[k] for every row, each a one-accumulator sum
// in ascending index order, bit-identical to DotSigmoid's z. It is the
// forward sweep of the SGD block step: one positive and its negatives
// against the same S_u row. Interleaving the rows' independent chains
// changes no chain's result. Six-row groups run dot6RowsAVX where the CPU
// has AVX and dot6Serial otherwise. It panics if len(out) != len(rows) or a
// row's length differs from len(x).
func DotRows(x []float32, rows [][]float32, out []float32) {
	if len(out) != len(rows) {
		panic("vecmath: DotRows length mismatch")
	}
	for len(rows) >= rowGroup && len(out) >= rowGroup {
		if hasAVX && len(x) > 0 {
			if len(rows[0]) != len(x) || len(rows[1]) != len(x) || len(rows[2]) != len(x) ||
				len(rows[3]) != len(x) || len(rows[4]) != len(x) || len(rows[5]) != len(x) {
				panic("vecmath: DotRows length mismatch")
			}
			dot6RowsAVX(&x[0], &rows[0], &out[0], len(x))
		} else {
			out[0], out[1], out[2], out[3], out[4], out[5] = dot6Serial(x, rows[0], rows[1], rows[2], rows[3], rows[4], rows[5])
		}
		rows, out = rows[rowGroup:], out[rowGroup:]
	}
	if len(out) >= len(rows) {
		for k, r := range rows {
			if len(r) != len(x) {
				panic("vecmath: DotRows length mismatch")
			}
			out[k] = dotSerial(x, r)
		}
	}
}

// dot6Serial is dotSerial against six rows at once.
func dot6Serial(x, r0, r1, r2, r3, r4, r5 []float32) (s0, s1, s2, s3, s4, s5 float32) {
	if len(r0) != len(x) || len(r1) != len(x) || len(r2) != len(x) ||
		len(r3) != len(x) || len(r4) != len(x) || len(r5) != len(x) {
		panic("vecmath: DotRows length mismatch")
	}
	for i, v := range x {
		s0 += float32(v * r0[i])
		s1 += float32(v * r1[i])
		s2 += float32(v * r2[i])
		s3 += float32(v * r3[i])
		s4 += float32(v * r4[i])
		s5 += float32(v * r5[i])
	}
	return s0, s1, s2, s3, s4, s5
}

// AxpyRows is the update sweep of the SGD block step. If zero is set, acc
// is first taken as all zeros, whatever it holds. Then, for each coordinate
// i, and for each row k in order, it performs
//
//	acc[i]     += g[k]*rows[k][i]   (the S_u gradient, reading T_k before its update)
//	rows[k][i] += g[k]*x[i]         (the T_k update, reading S_u)
//
// and then, if apply is set, x[i] += acc[i]. Each element therefore sees
// exactly the operations, in exactly the order, of calling Zero(acc) if
// zero is set, AxpyTwo(g[k], rows[k], acc, x, rows[k]) for k = 0, 1, ...
// and then Axpy(1, acc, x) if apply is set, but acc and x are read and
// written once per group of rows instead of once per row. Six-row groups
// run axpy6RowsAVX where the CPU has AVX, which starts a zeroed acc in a
// register, and axpy6Rows otherwise. The rows must be distinct and must not
// alias x or acc; x and acc must not alias. It panics if len(g) !=
// len(rows) or any length differs from len(x).
func AxpyRows(g []float32, rows [][]float32, x, acc []float32, zero, apply bool) {
	if len(g) != len(rows) {
		panic("vecmath: AxpyRows length mismatch")
	}
	if zero && (!hasAVX || len(rows) < rowGroup) {
		Zero(acc)
		zero = false
	}
	for len(rows) >= rowGroup && len(g) >= rowGroup {
		// x takes the gradient in the sweep of the last group only.
		last := len(rows) == rowGroup
		if hasAVX && len(x) > 0 {
			if len(acc) != len(x) || len(rows[0]) != len(x) || len(rows[1]) != len(x) || len(rows[2]) != len(x) ||
				len(rows[3]) != len(x) || len(rows[4]) != len(x) || len(rows[5]) != len(x) {
				panic("vecmath: AxpyRows length mismatch")
			}
			axpy6RowsAVX(&g[0], &rows[0], &x[0], &acc[0], len(x), zero, apply && last)
		} else {
			axpy6Rows(g[0], g[1], g[2], g[3], g[4], g[5],
				rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], x, acc, apply && last)
		}
		if last {
			return
		}
		rows, g = rows[rowGroup:], g[rowGroup:]
		zero = false
	}
	if len(g) >= len(rows) {
		for k, r := range rows {
			AxpyTwo(g[k], r, acc, x, r)
		}
	}
	if apply {
		Axpy(1, acc, x)
	}
}

// axpy6Rows is AxpyRows' sweep over six rows, with the accumulator in a
// register. It is the Go kernel: the reference for the assembly sweep, and
// what runs without AVX and off amd64.
func axpy6Rows(g0, g1, g2, g3, g4, g5 float32, r0, r1, r2, r3, r4, r5, x, acc []float32, apply bool) {
	if len(acc) != len(x) || len(r0) != len(x) || len(r1) != len(x) || len(r2) != len(x) ||
		len(r3) != len(x) || len(r4) != len(x) || len(r5) != len(x) {
		panic("vecmath: AxpyRows length mismatch")
	}
	for i, v := range x {
		a := acc[i]
		a += float32(g0 * r0[i])
		r0[i] += float32(g0 * v)
		a += float32(g1 * r1[i])
		r1[i] += float32(g1 * v)
		a += float32(g2 * r2[i])
		r2[i] += float32(g2 * v)
		a += float32(g3 * r3[i])
		r3[i] += float32(g3 * v)
		a += float32(g4 * r4[i])
		r4[i] += float32(g4 * v)
		a += float32(g5 * r5[i])
		r5[i] += float32(g5 * v)
		acc[i] = a
		if apply {
			x[i] = v + a
		}
	}
}

// SquaredDistance returns ||a-b||² with both the per-coordinate differences
// and the accumulation in float64: in float32, coordinates above ~1.3e19
// square to +Inf and large-norm rows (the diverged-model geometry that also
// motivated the CosineSimilarity float64 fix) lose their low bits entirely,
// which silently corrupted ANN k-means assignments. Accumulation is blocked
// 4-wide (reassociated; distances carry no bitwise pin). It panics if the
// lengths differ.
func SquaredDistance(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: SquaredDistance length mismatch")
	}
	var s0, s1, s2, s3 float64
	for len(a) >= 8 && len(b) >= 8 {
		d0 := float64(a[0]) - float64(b[0])
		d1 := float64(a[1]) - float64(b[1])
		d2 := float64(a[2]) - float64(b[2])
		d3 := float64(a[3]) - float64(b[3])
		d4 := float64(a[4]) - float64(b[4])
		d5 := float64(a[5]) - float64(b[5])
		d6 := float64(a[6]) - float64(b[6])
		d7 := float64(a[7]) - float64(b[7])
		s0 += d0*d0 + d4*d4
		s1 += d1*d1 + d5*d5
		s2 += d2*d2 + d6*d6
		s3 += d3*d3 + d7*d7
		a = a[8:]
		b = b[8:]
	}
	if len(b) >= len(a) {
		for i, v := range a {
			d := float64(v) - float64(b[i])
			s0 += d * d
		}
	}
	return (s0 + s1) + (s2 + s3)
}
