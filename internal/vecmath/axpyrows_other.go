//go:build !amd64

package vecmath

// hasAVX is false off amd64: DotRows and AxpyRows run the Go kernels, and
// the compiler drops the branches that would call the assembly.
const hasAVX = false

// dot6RowsAVX and axpy6RowsAVX exist in assembly only on amd64; with
// hasAVX constant false they are never called here.
func dot6RowsAVX(x *float32, rows *[]float32, out *float32, n int) {
	panic("vecmath: no assembly kernel on this GOARCH")
}

func axpy6RowsAVX(c *float32, rows *[]float32, x, acc *float32, n int, zero, apply bool) {
	panic("vecmath: no assembly kernel on this GOARCH")
}
