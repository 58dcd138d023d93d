package vecmath

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers. It is read once at start-up; DotRows and AxpyRows run the
// assembly sweeps when it is set and the Go ones otherwise, with identical
// results.
var hasAVX = cpuHasAVX()

// cpuHasAVX checks CPUID leaf 1 (OSXSAVE and AVX) and XCR0 (XMM and YMM
// state enabled).
func cpuHasAVX() bool

// dot6RowsAVX is dot6Serial over n coordinates into out[0:6], with rows
// pointing at six row slices of length n. Each vector lane is one row
// (lanes 6 and 7 are unused): 8 coordinates of the six rows are transposed
// into 8 columns, and each column's product with x is added to the lanes
// in ascending coordinate order, a separate VMULPS and VADDPS per
// coordinate (no FMA); the last n%8 coordinates are built one column at a
// time. So each lane sums exactly dot6Serial's add chain for its row,
// starting from +0. Every result that is not NaN is bit-identical, and a
// result is NaN exactly where dot6Serial's is; only its sign and payload
// can differ, as for axpy6RowsAVX.
//
//go:noescape
func dot6RowsAVX(x *float32, rows *[]float32, out *float32, n int)

// axpy6RowsAVX is axpy6Rows over n coordinates, 8 per instruction, with the
// coefficients c[0:6] and rows pointing at six row slices of length n. Each
// vector lane is one coordinate and performs the Go loop's operations on it
// in the same order: for row k = 0..5, acc += c_k·r_k reading r_k before
// its update, then r_k += c_k·x; after row 5 acc is stored, and with apply
// set x += acc. With zero set, acc starts from +0 in a register instead of
// its stored value, as if it had been zeroed first. Every multiply and add
// is its own instruction (no FMA), rounded on its own, and the last n%8
// coordinates run the same sequence with scalar instructions. So every
// result that is not NaN is bit-identical to axpy6Rows', and a result is
// NaN exactly where axpy6Rows' is. Only a NaN's sign and payload can
// differ: x86 takes them from the first NaN operand, and gc does not order
// the operands the same way for every row. No golden fixture holds a NaN,
// and divergence checks test IsNaN.
//
//go:noescape
func axpy6RowsAVX(c *float32, rows *[]float32, x, acc *float32, n int, zero, apply bool)
