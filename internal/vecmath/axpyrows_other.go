//go:build !amd64

package vecmath

// axpy6 is AxpyRows' sweep over six rows: the Go kernel on this
// architecture.
func axpy6(c0, c1, c2, c3, c4, c5 float32, r0, r1, r2, r3, r4, r5, x, acc []float32, apply bool) {
	axpy6Rows(c0, c1, c2, c3, c4, c5, r0, r1, r2, r3, r4, r5, x, acc, apply)
}
