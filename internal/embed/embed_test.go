package embed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"inf2vec/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(-1, 5); err == nil {
		t.Error("n=-1 accepted")
	}
	if _, err := New(3, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestInitRange(t *testing.T) {
	s, err := New(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(1))
	bound := float32(1.0 / 20)
	var nonzero int
	for u := int32(0); u < 100; u++ {
		for _, v := range s.SourceVec(u) {
			if v < -bound || v > bound {
				t.Fatalf("source coord %v outside [-1/K, 1/K]", v)
			}
			if v != 0 {
				nonzero++
			}
		}
		for _, v := range s.TargetVec(u) {
			if v < -bound || v > bound {
				t.Fatalf("target coord %v outside [-1/K, 1/K]", v)
			}
		}
		if *s.BiasSource(u) != 0 || *s.BiasTarget(u) != 0 {
			t.Fatal("biases not zero after Init")
		}
	}
	if nonzero == 0 {
		t.Fatal("Init produced an all-zero store")
	}
}

func TestScore(t *testing.T) {
	s, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy(s.SourceVec(0), []float32{1, 2})
	copy(s.TargetVec(1), []float32{3, 4})
	*s.BiasSource(0) = 0.5
	*s.BiasTarget(1) = 0.25
	got := s.Score(0, 1)
	want := 1.0*3 + 2*4 + 0.5 + 0.25
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("Score = %v, want %v", got, want)
	}
}

func TestVectorRowsAreViews(t *testing.T) {
	s, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.SourceVec(1)[2] = 42
	if s.SourceVec(1)[2] != 42 {
		t.Fatal("SourceVec is not a live view")
	}
	if s.SourceVec(0)[2] == 42 {
		t.Fatal("rows alias each other")
	}
	// Rows must be capacity-clipped: appending must not bleed into the next row.
	row := s.SourceVec(0)
	row = append(row, 99)
	if s.SourceVec(1)[0] == 99 {
		t.Fatal("append to row 0 overwrote row 1")
	}
	_ = row
}

func TestConcat(t *testing.T) {
	s, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy(s.SourceVec(0), []float32{1, 2})
	copy(s.TargetVec(0), []float32{3, 4})
	got := s.Concat(0)
	want := []float32{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", got, want)
		}
	}
	// Must be a copy.
	got[0] = 77
	if s.SourceVec(0)[0] == 77 {
		t.Fatal("Concat shares storage with the store")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := New(17, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(5))
	*s.BiasSource(3) = 1.5
	*s.BiasTarget(16) = -2.25

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumUsers() != 17 || s2.Dim() != 9 {
		t.Fatalf("loaded shape %d/%d", s2.NumUsers(), s2.Dim())
	}
	for u := int32(0); u < 17; u++ {
		a, b := s.SourceVec(u), s2.SourceVec(u)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("source row %d differs after round trip", u)
			}
		}
		if *s.BiasSource(u) != *s2.BiasSource(u) || *s.BiasTarget(u) != *s2.BiasTarget(u) {
			t.Fatalf("bias %d differs after round trip", u)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
	}
	for _, in := range cases {
		if _, err := Load(bytes.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("Load(%q): err = %v, want ErrBadFormat", in, err)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	s, err := New(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(9))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{9, 12, 20, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Errorf("truncated at %d: err = %v, want ErrBadFormat", cut, err)
		}
	}
}

func TestLoadRejectsBadHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{'I', '2', 'V', 'E', 'M', 'B', 1, 0})
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 4, 0, 0, 0}) // n = -1
	if _, err := Load(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("negative n header: err = %v, want ErrBadFormat", err)
	}
}

func TestLoadRejectsImplausibleShape(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{'I', '2', 'V', 'E', 'M', 'B', 1, 0})
	// n = 2^30, k = 2^10: 2^40 coordinates, must be rejected before
	// allocation.
	buf.Write([]byte{0, 0, 0, 0x40, 0, 4, 0, 0})
	if _, err := Load(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("implausible shape: err = %v, want ErrBadFormat", err)
	}
}

func TestLoadRejectsTrailingGarbage(t *testing.T) {
	s, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(4))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xAB)
	if _, err := Load(&buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("trailing garbage: err = %v, want ErrBadFormat", err)
	}
}

func TestLoadRejectsUnsupportedVersion(t *testing.T) {
	s, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[6] = 99 // future format version
	if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("future version: err = %v, want ErrBadFormat", err)
	}
}

// TestLoadFromLeavesTrailingBytes checks what a container relies on to nest
// a store: SaveSize is the exact length Save writes, and Load over an
// io.LimitReader of that length reads the store and leaves the bytes after
// it unread.
func TestLoadFromLeavesTrailingBytes(t *testing.T) {
	s, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(2))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := int64(buf.Len()); got != s.SaveSize() {
		t.Fatalf("SaveSize = %d, actual save wrote %d", s.SaveSize(), got)
	}
	buf.WriteString("suffix")
	s2, err := Load(io.LimitReader(&buf, s.SaveSize()))
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumUsers() != 4 || s2.Dim() != 3 {
		t.Fatalf("loaded shape %d/%d", s2.NumUsers(), s2.Dim())
	}
	if buf.String() != "suffix" {
		t.Fatalf("Load consumed bytes past the limit, remainder %q", buf.String())
	}
}

func TestLoadDetectsBodyCorruption(t *testing.T) {
	s, err := New(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(11))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every region of the body and the trailer: the CRC must
	// reject each variant.
	full := buf.Bytes()
	for _, off := range []int{9, 16, len(full) / 2, len(full) - 6, len(full) - 1} {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x01
		if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("bit flip at %d: err = %v, want ErrBadFormat", off, err)
		}
	}
}

func TestLoadAcceptsLegacyV1(t *testing.T) {
	s, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(3))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A version-1 file is the version-2 bytes without the CRC trailer.
	v1 := append([]byte(nil), buf.Bytes()[:buf.Len()-4]...)
	v1[6] = 1
	s2, err := Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("legacy v1 store rejected: %v", err)
	}
	if s2.NumUsers() != 4 || s2.Dim() != 3 {
		t.Fatalf("legacy load shape %d/%d", s2.NumUsers(), s2.Dim())
	}
	if s2.SourceVec(2)[1] != s.SourceVec(2)[1] {
		t.Fatal("legacy load corrupted parameters")
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	s, err := New(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(21))
	path := t.TempDir() + "/model.i2v"
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with different parameters: readers must see old or new.
	s.SourceVec(0)[0] = 42
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SourceVec(0)[0] != 42 {
		t.Fatal("SaveFile did not replace the file")
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after SaveFile, want 1", len(entries))
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	s, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(7))
	c := s.Clone()
	c.SourceVec(0)[0] = 123
	if s.SourceVec(0)[0] == 123 {
		t.Fatal("Clone shares storage")
	}
	if err := s.CopyFrom(c); err != nil {
		t.Fatal(err)
	}
	if s.SourceVec(0)[0] != 123 {
		t.Fatal("CopyFrom did not copy")
	}
	other, err := New(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CopyFrom(other); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestCopyPrefix(t *testing.T) {
	src, err := New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	src.Init(rng.New(1))
	dst, err := New(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst.Init(rng.New(2))
	keep := dst.Clone()
	if err := dst.CopyPrefix(src); err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 5; u++ {
		want := keep
		if u < 3 {
			want = src
		}
		for i, v := range dst.SourceVec(u) {
			if v != want.SourceVec(u)[i] {
				t.Fatalf("source row %d coord %d: %v, want %v", u, i, v, want.SourceVec(u)[i])
			}
		}
		if *dst.BiasSource(u) != *want.BiasSource(u) {
			t.Fatalf("bias row %d: %v, want %v", u, *dst.BiasSource(u), *want.BiasSource(u))
		}
	}
	wrongDim, _ := New(3, 5)
	if err := dst.CopyPrefix(wrongDim); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	tooBig, _ := New(6, 4)
	if err := dst.CopyPrefix(tooBig); err == nil {
		t.Fatal("oversized source accepted")
	}
}

// TestChecksumIsContentFingerprint pins the Checksum definition: it must
// vary with content (a whole-file CRC would collapse to the CRC residue
// constant 0x2144df1c for every store) and must equal the CRC trailer that
// Save writes.
func TestChecksumIsContentFingerprint(t *testing.T) {
	a, _ := New(3, 8)
	a.Init(rng.New(1))
	b, _ := New(3, 8)
	b.Init(rng.New(2))
	if a.Checksum() == b.Checksum() {
		t.Fatalf("different stores share checksum %08x", a.Checksum())
	}
	if a.Checksum() == 0x2144df1c {
		t.Fatal("checksum equals the CRC-32 residue: trailer included in hash")
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	trailer := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if a.Checksum() != trailer {
		t.Fatalf("Checksum %08x != file trailer %08x", a.Checksum(), trailer)
	}
}

// TestChecksumAllocationIsBounded pins that hashing a store does not encode
// it whole in memory: Checksum of a 2000×50 store (about 800 KB on disk)
// must allocate less than 128 KiB.
func TestChecksumAllocationIsBounded(t *testing.T) {
	s, _ := New(2000, 50)
	s.Init(rng.New(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Checksum()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 128<<10 {
		t.Fatalf("Checksum of a %d-byte store allocated %d bytes", s.SaveSize(), alloc)
	}
}
