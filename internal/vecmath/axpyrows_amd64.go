package vecmath

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers. It is read once at start-up; axpy6 runs the assembly sweep
// when it is set and the Go one otherwise, with identical results.
var hasAVX = cpuHasAVX()

// cpuHasAVX checks CPUID leaf 1 (OSXSAVE and AVX) and XCR0 (XMM and YMM
// state enabled).
func cpuHasAVX() bool

// axpy6RowsAVX is axpy6Rows over n coordinates, 8 per instruction. Each
// vector lane is one coordinate and performs the Go loop's operations on it
// in the same order: for row k = 0..5, acc += c_k·r_k reading r_k before its
// update, then r_k += c_k·x; after row 5 acc is stored, and with apply set
// x += acc. Every multiply and add is its own instruction (no FMA), rounded
// on its own, and the last n%8 coordinates run the same sequence with scalar
// instructions. So every result that is not NaN is bit-identical to
// axpy6Rows', and a result is NaN exactly where axpy6Rows' is. Only a NaN's
// sign and payload can differ: x86 takes them from the first NaN operand,
// and gc does not order the operands the same way for every row. No golden
// fixture holds a NaN, and divergence checks test IsNaN.
//
//go:noescape
func axpy6RowsAVX(c0, c1, c2, c3, c4, c5 float32, r0, r1, r2, r3, r4, r5, x, acc *float32, n int, apply bool)

// axpy6 is AxpyRows' sweep over six rows, in assembly when the CPU has AVX.
func axpy6(c0, c1, c2, c3, c4, c5 float32, r0, r1, r2, r3, r4, r5, x, acc []float32, apply bool) {
	if !hasAVX || len(x) == 0 {
		axpy6Rows(c0, c1, c2, c3, c4, c5, r0, r1, r2, r3, r4, r5, x, acc, apply)
		return
	}
	if len(acc) != len(x) || len(r0) != len(x) || len(r1) != len(x) || len(r2) != len(x) ||
		len(r3) != len(x) || len(r4) != len(x) || len(r5) != len(x) {
		panic("vecmath: AxpyRows length mismatch")
	}
	axpy6RowsAVX(c0, c1, c2, c3, c4, c5, &r0[0], &r1[0], &r2[0], &r3[0], &r4[0], &r5[0], &x[0], &acc[0], len(x), apply)
}
