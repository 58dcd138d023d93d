package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var (
	testMagic = [6]byte{'T', 'E', 'S', 'T', 'F', 'R'}
	errTest   = errors.New("test: bad file")
)

// sample writes a file of version 7: int32 3, float64 0.5, three float32s.
func sample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, 7)
	w.Put(int32(3), 0.5, []float32{1, -2, 4})
	if err := w.Trailer(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriterLayout(t *testing.T) {
	raw := sample(t)
	if len(raw) != 8+4+8+12+4 {
		t.Fatalf("file is %d bytes", len(raw))
	}
	if !bytes.Equal(raw[:8], []byte("TESTFR\x07\x00")) {
		t.Fatalf("header %q", raw[:8])
	}
	body := raw[:len(raw)-4]
	if got, want := binary.LittleEndian.Uint32(raw[len(raw)-4:]), crc32.ChecksumIEEE(body); got != want {
		t.Fatalf("trailer %08x, CRC of the preceding bytes %08x", got, want)
	}
}

func TestReaderRoundTrip(t *testing.T) {
	raw := sample(t)
	r, err := NewReader(bytes.NewReader(raw), testMagic, errTest)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version != 7 {
		t.Fatalf("Version = %d", r.Version)
	}
	var n int32
	var x float64
	if err := r.Get("header", &n, &x); err != nil {
		t.Fatal(err)
	}
	vals, err := Block[float32](r, int64(n), "values")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || x != 0.5 || vals[0] != 1 || vals[1] != -2 || vals[2] != 4 {
		t.Fatalf("decoded %d %v %v", n, x, vals)
	}
	if err := r.Trailer(); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if got := r.Sum(); got != binary.LittleEndian.Uint32(raw[len(raw)-4:]) {
		t.Fatalf("Sum %08x is not the trailer", got)
	}
}

// read decodes sample's layout from data and returns the first error.
func read(data []byte) error {
	r, err := NewReader(bytes.NewReader(data), testMagic, errTest)
	if err != nil {
		return err
	}
	var n int32
	var x float64
	if err := r.Get("header", &n, &x); err != nil {
		return err
	}
	if _, err := Block[float32](r, int64(n), "values"); err != nil {
		return err
	}
	if err := r.Trailer(); err != nil {
		return err
	}
	return r.End()
}

// TestErrorsNameSectionAndOffset cuts the sample at every length and checks
// that the error wraps the sentinel and names the section being read and
// the offset at which the input ended.
func TestErrorsNameSectionAndOffset(t *testing.T) {
	raw := sample(t)
	for cut := 0; cut < len(raw); cut++ {
		section := "magic"
		switch {
		case cut >= 32:
			section = "CRC trailer"
		case cut >= 20:
			section = "values"
		case cut >= 8:
			section = "header"
		}
		err := read(raw[:cut])
		if !errors.Is(err, errTest) {
			t.Fatalf("cut %d: err = %v, want the sentinel", cut, err)
		}
		want := "reading " + section + " at byte offset " + strconv.Itoa(cut) + ":"
		if !strings.Contains(err.Error(), want) {
			t.Errorf("cut %d: %q does not contain %q", cut, err, want)
		}
	}
}

func TestHeaderChecks(t *testing.T) {
	raw := sample(t)
	for name, c := range map[string]struct {
		at   int
		b    byte
		want string
	}{
		"bad magic":     {0, 'X', "bad magic"},
		"reserved byte": {7, 1, "reserved header byte is 1"},
	} {
		bad := append([]byte(nil), raw...)
		bad[c.at] = c.b
		err := read(bad)
		if !errors.Is(err, errTest) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want the sentinel and %q", name, err, c.want)
		}
	}
}

func TestTrailerAndEnd(t *testing.T) {
	raw := sample(t)
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 1
	if err := read(flipped); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("flipped trailer: err = %v", err)
	}
	body := append([]byte(nil), raw...)
	body[12] ^= 1
	if err := read(body); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("flipped body: err = %v", err)
	}
	long := append(append([]byte(nil), raw...), 0)
	if err := read(long); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "trailing garbage after byte offset 36") {
		t.Errorf("trailing byte: err = %v", err)
	}
}

// TestSumWithoutTrailer: a format without a trailer skips Trailer, and Sum
// is then the CRC of the whole file.
func TestSumWithoutTrailer(t *testing.T) {
	raw := sample(t)
	noTrailer := raw[:len(raw)-4]
	r, err := NewReader(bytes.NewReader(noTrailer), testMagic, errTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Sum(), crc32.ChecksumIEEE(noTrailer); got != want {
		t.Fatalf("Sum %08x, CRC of the file %08x", got, want)
	}
}

// TestNested reads a framed file nested in another through a LimitReader:
// the inner decoder consumes exactly its bytes, and the outer trailer covers
// them.
func TestNested(t *testing.T) {
	inner := sample(t)
	var buf bytes.Buffer
	w := NewWriter(&buf, [6]byte{'O', 'U', 'T', 'E', 'R', '!'}, 1)
	w.Put(int64(len(inner)))
	w.Write(inner)
	if err := w.Trailer(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, [6]byte{'O', 'U', 'T', 'E', 'R', '!'}, errTest)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	if err := r.Get("size", &size); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(io.LimitReader(r, size))
	if err != nil {
		t.Fatal(err)
	}
	if err := read(got); err != nil {
		t.Fatalf("inner file: %v", err)
	}
	if err := r.Trailer(); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// blockFile frames n little-endian values of T.
func blockFile[T int8 | float32](t *testing.T, vals []T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, 1)
	w.Put(vals)
	if err := w.Trailer(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkBlock[T int8 | float32](t *testing.T, n int) {
	t.Helper()
	vals := make([]T, n)
	for i := range vals {
		vals[i] = T(i%251 - 125)
	}
	raw := blockFile(t, vals)
	r, err := NewReader(bytes.NewReader(raw), testMagic, errTest)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Block[T](r, int64(n), "block")
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if len(got) != n {
		t.Fatalf("n=%d: got %d values", n, len(got))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("n=%d: value %d = %v, want %v", n, i, got[i], vals[i])
		}
	}
	if err := r.Trailer(); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if n == 0 {
		return
	}
	// Cut one byte inside the last value: the error names the offset.
	cut := len(raw) - 4 - 1
	r, err = NewReader(bytes.NewReader(raw[:cut]), testMagic, errTest)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Block[T](r, int64(n), "block")
	if !errors.Is(err, errTest) || !strings.Contains(err.Error(), "reading block at byte offset "+strconv.Itoa(cut)+":") {
		t.Fatalf("n=%d cut at %d: err = %v", n, cut, err)
	}
}

// TestBlockChunks reads blocks of every element type at n=0 and around the
// 256 KiB chunk boundary.
func TestBlockChunks(t *testing.T) {
	for _, n := range []int{0, 1, 1<<16 - 1, 1 << 16, 1<<16 + 3} {
		checkBlock[float32](t, n)
	}
	for _, n := range []int{0, 1, 1<<18 - 1, 1 << 18, 1<<18 + 3} {
		checkBlock[int8](t, n)
	}
}

func TestBlockRejectsNegativeCount(t *testing.T) {
	r, err := NewReader(bytes.NewReader(sample(t)), testMagic, errTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Block[int8](r, -1, "block"); !errors.Is(err, errTest) {
		t.Fatalf("err = %v, want the sentinel", err)
	}
}

// TestBlockAllocationFollowsBytes asks for 2^30 floats from a file that
// holds three: Block fails at the end of the input having allocated at most
// one chunk.
func TestBlockAllocationFollowsBytes(t *testing.T) {
	raw := sample(t)
	r, err := NewReader(bytes.NewReader(raw), testMagic, errTest)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Block[float32](r, 1<<30, "values")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTest) {
		t.Fatalf("err = %v, want the sentinel", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Block allocated %d bytes for a %d-byte file", alloc, len(raw))
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after < len(p) {
		return 0, errors.New("disk full")
	}
	f.after -= len(p)
	return len(p), nil
}

// TestWriterErrorSticks: the first write error is kept, and every later
// call returns it.
func TestWriterErrorSticks(t *testing.T) {
	w := NewWriter(&failWriter{after: 8}, testMagic, 1)
	if err := w.Put(int32(1)); err == nil {
		t.Fatal("Put past the failure succeeded")
	}
	if err := w.Put(int32(2)); err == nil || err.Error() != "disk full" {
		t.Fatalf("later Put: err = %v", err)
	}
	if err := w.Trailer(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Trailer: err = %v", err)
	}
}
