// Package frame is the one codec behind every durable binary file the
// repository writes: embedding stores, training checkpoints, and the
// streaming pipeline's resume cursor and publish intent. Each file is
//
//	magic [6]byte | version byte | reserved zero byte | body |
//	uint32 CRC-32 (IEEE) of every preceding byte
//
// with all fields little-endian. The body is the format's own business; the
// package owns what every format used to repeat: the header check, a running
// byte offset and CRC, errors that name the section and the offset where a
// read failed, allocation that grows only as bytes arrive, the trailer, and
// the trailing-garbage check.
//
// A Reader is itself an io.Reader, so a container nests another framed file
// by handing an io.LimitReader over its Reader to the inner decoder: the
// outer CRC covers the inner bytes, and the inner decoder reports offsets
// relative to the start of the inner file. A format without a trailer (the
// legacy embed v1) skips Trailer; its Sum is then the CRC of the whole file.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

var le = binary.LittleEndian

// Writer writes one framed file, keeping the CRC of every byte written. Its
// first error sticks: later calls do nothing and Trailer returns it, so a
// writer can Put a whole body and check once.
type Writer struct {
	w   io.Writer
	crc uint32
	err error
	buf []byte // encodes float32 blocks a bounded piece at a time
}

// NewWriter writes the header to w and returns a Writer for the body.
func NewWriter(w io.Writer, magic [6]byte, version byte) *Writer {
	hdr := [8]byte{6: version}
	copy(hdr[:], magic[:])
	fw := &Writer{w: w}
	fw.Put(hdr)
	return fw
}

// Write writes p and adds it to the running CRC.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p[:n])
	w.err = err
	return n, err
}

// Put writes each value as binary.Write does, little-endian. A []float32
// is encoded through a buffer of at most 64 KiB, not into one copy of the
// whole block.
func (w *Writer) Put(values ...any) error {
	for _, v := range values {
		if w.err != nil {
			break
		}
		if f, ok := v.([]float32); ok {
			w.putFloat32s(f)
		} else if err := binary.Write(w, le, v); err != nil {
			w.err = err
		}
	}
	return w.err
}

// putFloat32s writes v a buffer at a time.
func (w *Writer) putFloat32s(v []float32) {
	const bufFloats = 16 << 10
	for len(v) > 0 && w.err == nil {
		n := min(len(v), bufFloats)
		if cap(w.buf) < 4*n {
			w.buf = make([]byte, 4*n)
		}
		b := w.buf[:4*n]
		for i, f := range v[:n] {
			le.PutUint32(b[4*i:], math.Float32bits(f))
		}
		w.Write(b)
		v = v[n:]
	}
}

// Sum returns the CRC-32 of every byte written so far.
func (w *Writer) Sum() uint32 { return w.crc }

// Trailer writes Sum, which closes the file, and returns the first error of
// any write.
func (w *Writer) Trailer() error {
	if w.err == nil {
		_, w.err = w.w.Write(le.AppendUint32(nil, w.crc))
	}
	return w.err
}

// Reader reads one framed file, counting the byte offset and keeping the CRC
// of every byte it hands out. Every error it returns wraps the sentinel its
// caller passed to NewReader.
type Reader struct {
	r        io.Reader
	sentinel error
	off      int64
	crc      uint32
	// Version is the header's version byte. The caller decides which
	// versions it accepts.
	Version byte
}

// NewReader reads the header from r and checks its magic and reserved byte.
func NewReader(r io.Reader, magic [6]byte, sentinel error) (*Reader, error) {
	fr := &Reader{r: r, sentinel: sentinel}
	var hdr [8]byte
	if err := fr.Get("magic", &hdr); err != nil {
		return nil, err
	}
	if [6]byte(hdr[:6]) != magic {
		return nil, fr.Errorf("bad magic %q", hdr[:6])
	}
	if hdr[7] != 0 {
		return nil, fr.Errorf("reserved header byte is %d, want 0", hdr[7])
	}
	fr.Version = hdr[6]
	return fr, nil
}

// Read reads from the file, counting the bytes and adding them to the CRC.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.off += int64(n)
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Errorf returns an error that wraps the sentinel.
func (r *Reader) Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{r.sentinel}, args...)...)
}

// readErr reports a failed read of section at the offset where it stopped.
func (r *Reader) readErr(section string, err error) error {
	return r.Errorf("reading %s at byte offset %d: %v", section, r.off, err)
}

// Get reads each pointed-to value as binary.Read does, little-endian.
func (r *Reader) Get(section string, ptrs ...any) error {
	for _, p := range ptrs {
		if err := binary.Read(r, le, p); err != nil {
			return r.readErr(section, err)
		}
	}
	return nil
}

// Block reads n values of T. It grows its result one bounded chunk at a time
// as bytes arrive, so a count that the file does not back fails at the end
// of the input before any large allocation.
func Block[T int8 | float32](r *Reader, n int64, section string) ([]T, error) {
	const chunkBytes = 1 << 18
	if n < 0 {
		return nil, r.Errorf("negative %s count %d", section, n)
	}
	var zero T
	chunk := min(n, chunkBytes/int64(binary.Size(zero)))
	out := make([]T, 0, chunk)
	for int64(len(out)) < n {
		start := len(out)
		out = append(out, make([]T, min(n-int64(start), chunk))...)
		if err := binary.Read(r, le, out[start:]); err != nil {
			return nil, r.readErr(section, err)
		}
	}
	return out, nil
}

// Sum returns the CRC-32 of every byte read before the trailer: the value a
// valid trailer holds, or the CRC of the whole file when it has none.
func (r *Reader) Sum() uint32 { return r.crc }

// Trailer reads the CRC trailer, leaving it out of Sum, and checks it
// against Sum.
func (r *Reader) Trailer() error {
	var b [4]byte
	n, err := io.ReadFull(r.r, b[:])
	r.off += int64(n)
	if err != nil {
		return r.readErr("CRC trailer", err)
	}
	if want := le.Uint32(b[:]); want != r.crc {
		return r.Errorf("CRC mismatch (file %08x, computed %08x)", want, r.crc)
	}
	return nil
}

// End checks that the file holds nothing after what has been read.
func (r *Reader) End() error {
	var b [1]byte
	n, err := io.ReadFull(r.r, b[:])
	if n != 0 {
		return r.Errorf("trailing garbage after byte offset %d", r.off)
	}
	if err != io.EOF {
		return r.readErr("end of file", err)
	}
	return nil
}
