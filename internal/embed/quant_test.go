package embed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inf2vec/internal/rng"
)

// testStore builds a small deterministic initialized store.
func testStore(t *testing.T, n int32, k int) *Store {
	t.Helper()
	s, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(7))
	for u := int32(0); u < n; u++ {
		*s.BiasSource(u) = float32(u) * 0.01
		*s.BiasTarget(u) = -float32(u) * 0.02
	}
	return s
}

func TestQuantizeScoreCloseAndStatsSane(t *testing.T) {
	s := testStore(t, 40, 16)
	q, st := Quantize(s)
	if st.NonFiniteRows != 0 {
		t.Fatalf("NonFiniteRows = %d, want 0", st.NonFiniteRows)
	}
	if st.MaxAbsErr <= 0 || st.RMSErr <= 0 || st.RMSErr > st.MaxAbsErr {
		t.Fatalf("implausible stats %+v", st)
	}
	// Analytic bound on the score error: each coordinate is off by at most
	// half its row scale, so |Δ(S·T)| <= Σ_i (e_s|T_i'| + e_t|S_i| + e_s e_t)
	// with e = scale/2. Use the coarser k·(e_s·maxT + e_t·maxS + e_s·e_t).
	for u := int32(0); u < s.NumUsers(); u++ {
		for v := int32(0); v < s.NumUsers(); v++ {
			fp := s.Score(u, v)
			qt := q.Score(u, v)
			es := float64(q.scaleS[u]) / 2
			et := float64(q.scaleT[v]) / 2
			var maxS, maxT float64
			for _, x := range s.SourceVec(u) {
				if a := math.Abs(float64(x)); a > maxS {
					maxS = a
				}
			}
			for _, x := range s.TargetVec(v) {
				if a := math.Abs(float64(x)); a > maxT {
					maxT = a
				}
			}
			bound := float64(s.Dim())*(es*maxT+et*maxS+es*et) + 1e-6
			if d := math.Abs(fp - qt); d > bound {
				t.Fatalf("score(%d,%d): fp32 %g vs int8 %g, |Δ|=%g exceeds bound %g", u, v, fp, qt, d, bound)
			}
		}
	}
}

func TestQuantizedVecAccessorsMatchDequantize(t *testing.T) {
	s := testStore(t, 9, 5)
	q, _ := Quantize(s)
	d := q.Dequantize()
	for u := int32(0); u < s.NumUsers(); u++ {
		sv, tv := q.SourceVec(u), q.TargetVec(u)
		for i := 0; i < q.Dim(); i++ {
			if sv[i] != d.SourceVec(u)[i] || tv[i] != d.TargetVec(u)[i] {
				t.Fatalf("row %d: accessor/dequantize mismatch", u)
			}
		}
		if *q.BiasSource(u) != *s.BiasSource(u) || *q.BiasTarget(u) != *s.BiasTarget(u) {
			t.Fatalf("row %d: biases not preserved exactly", u)
		}
	}
}

// TestV3RoundTripIdenticalBytes pins the acceptance bound: a v3 file
// round-trips Save → LoadQuantized → Save to identical bytes.
func TestV3RoundTripIdenticalBytes(t *testing.T) {
	s := testStore(t, 23, 12)
	var first bytes.Buffer
	if err := s.SavePrecision(&first, PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	if int64(first.Len()) != quantSaveSize(23, 12) {
		t.Fatalf("v3 size %d, want %d", first.Len(), quantSaveSize(23, 12))
	}
	q, st, _, err := LoadQuantized(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("verbatim v3 load reported quantization stats %+v", st)
	}
	var second bytes.Buffer
	if err := q.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("v3 Save→Load→Save bytes differ")
	}
	if q.Checksum() != binary.LittleEndian.Uint32(first.Bytes()[first.Len()-4:]) {
		t.Fatal("Checksum does not match the CRC trailer")
	}
}

// TestV2RoundTripIdenticalBytes: the fp32 path is untouched by the v3
// addition — v2 Save→Load→Save must stay byte-identical (the training golden
// test additionally pins the exact pre-PR Save bytes via SHA-256).
func TestV2RoundTripIdenticalBytes(t *testing.T) {
	s := testStore(t, 11, 6)
	var first bytes.Buffer
	if err := s.SavePrecision(&first, PrecisionFP32); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := s2.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("v2 Save→Load→Save bytes differ")
	}
}

func TestLoadDequantizesV3(t *testing.T) {
	s := testStore(t, 14, 8)
	var buf bytes.Buffer
	if err := s.SavePrecision(&buf, PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Quantize(s)
	want := q.Dequantize()
	for u := int32(0); u < s.NumUsers(); u++ {
		for i := 0; i < s.Dim(); i++ {
			if got.SourceVec(u)[i] != want.SourceVec(u)[i] {
				t.Fatalf("row %d coord %d: Load(v3) %v, Dequantize %v", u, i, got.SourceVec(u)[i], want.SourceVec(u)[i])
			}
		}
	}
}

func TestLoadQuantizedFromFP32Input(t *testing.T) {
	s := testStore(t, 7, 4)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, st, _, err := LoadQuantized(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("fp32 input quantized without reporting stats")
	}
	direct, wantSt := Quantize(s)
	if *st != wantSt {
		t.Fatalf("stats %+v, want %+v", *st, wantSt)
	}
	var a, b bytes.Buffer
	if err := q.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := direct.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("LoadQuantized(v2) differs from Quantize(Load(v2))")
	}
}

func TestQuantizeNonFiniteRows(t *testing.T) {
	s := testStore(t, 5, 4)
	s.SourceVec(2)[1] = float32(math.NaN())
	s.TargetVec(4)[0] = float32(math.Inf(1))
	q, st := Quantize(s)
	if st.NonFiniteRows != 2 {
		t.Fatalf("NonFiniteRows = %d, want 2", st.NonFiniteRows)
	}
	if !math.IsNaN(q.Score(2, 0)) {
		t.Fatal("score against a NaN row should be NaN")
	}
	if !math.IsNaN(q.Score(0, 4)) {
		t.Fatal("score against an Inf row should be NaN")
	}
	if v := q.Score(0, 1); math.IsNaN(v) {
		t.Fatal("finite rows should still score finite")
	}
	// The NaN-scale encoding must survive a v3 round trip.
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, _, _, err := LoadQuantized(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(q2.Score(2, 0)) {
		t.Fatal("NaN-row encoding lost in round trip")
	}
}

// v3Bytes returns a valid saved v3 store for corruption tests.
func v3Bytes(t *testing.T, n int32, k int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testStore(t, n, k).SavePrecision(&buf, PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV3CorruptRejected(t *testing.T) {
	base := v3Bytes(t, 6, 4)
	cases := map[string][]byte{
		"flipped body bit":  flipByte(base, 20),
		"flipped CRC":       flipByte(base, len(base)-1),
		"truncated scales":  base[:18],
		"truncated biases":  base[:16+8*6+3],
		"truncated codes":   base[:len(base)-10],
		"missing trailer":   base[:len(base)-4],
		"trailing garbage":  append(append([]byte(nil), base...), 0),
		"negative scale":    patchScaleWithValidCRC(base, -0.5),
		"infinite scale":    patchScaleWithValidCRC(base, float32(math.Inf(1))),
		"reserved byte set": flipByte(base, 7),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: Load err = %v, want ErrBadFormat", name, err)
		}
		if _, _, _, err := LoadQuantized(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: LoadQuantized err = %v, want ErrBadFormat", name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// patchScaleWithValidCRC sets the first source scale to v and recomputes the
// CRC trailer, producing a structurally valid file whose scale is garbage —
// the case only semantic validation can catch.
func patchScaleWithValidCRC(base []byte, v float32) []byte {
	out := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(out[16:], math.Float32bits(v))
	sum := crc32.ChecksumIEEE(out[:len(out)-4])
	binary.LittleEndian.PutUint32(out[len(out)-4:], sum)
	return out
}

// TestTruncationReportsByteOffset pins the triage satellite: a truncated body
// error must name the section and the exact offset where the stream ended.
func TestTruncationReportsByteOffset(t *testing.T) {
	s := testStore(t, 3, 2)
	var v2 bytes.Buffer
	if err := s.Save(&v2); err != nil {
		t.Fatal(err)
	}
	cut := 30 // inside the source-embeddings block (starts at 16, runs 24 bytes)
	_, err := Load(bytes.NewReader(v2.Bytes()[:cut]))
	if err == nil {
		t.Fatal("truncated v2 accepted")
	}
	for _, want := range []string{"source embeddings", "at byte offset 30"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v2 truncation error %q missing %q", err, want)
		}
	}

	v3 := v3Bytes(t, 3, 2)
	cut = 16 + 4*3 + 2 // inside the target-scales block
	_, err = Load(bytes.NewReader(v3[:cut]))
	if err == nil {
		t.Fatal("truncated v3 accepted")
	}
	for _, want := range []string{"target scales", "at byte offset 30"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v3 truncation error %q missing %q", err, want)
		}
	}
}

func TestSaveFilePrecisionAndLoadQuantized(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, 8, 4)
	p := filepath.Join(dir, "model.i2v")
	if err := s.SaveFilePrecision(p, PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	q, _, _, err := LoadQuantized(f)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumUsers() != 8 || q.Dim() != 4 {
		t.Fatalf("loaded shape %dx%d", q.NumUsers(), q.Dim())
	}
	// The fp32 spelling must stay the plain v2 writer.
	if err := s.SaveFilePrecision(p, PrecisionFP32); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Checksum() != s.Checksum() {
		t.Fatal("fp32 SaveFilePrecision altered the v2 bytes")
	}
}

func TestParsePrecision(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
	}{{"fp32", PrecisionFP32}, {"int8", PrecisionInt8}} {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Errorf("String() = %q, want %q", got.String(), c.in)
		}
	}
	if _, err := ParsePrecision("fp16"); err == nil {
		t.Error("ParsePrecision accepted fp16")
	}
}

// TestQuantizedMemoryReduction pins the size arithmetic the bench recorder
// reports: at d=64 the v3 file and resident footprint are ~3.6x smaller than
// v2 (the int8 ceiling is 4x; the scales/biases keep it slightly below).
func TestQuantizedMemoryReduction(t *testing.T) {
	s := testStore(t, 100, 64)
	q, _ := Quantize(s)
	ratio := float64(s.SaveSize()) / float64(q.SaveSize())
	if ratio < 3.4 || ratio > 4.0 {
		t.Fatalf("v2/v3 size ratio %.2f, want in [3.4, 4.0]", ratio)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != q.SaveSize() {
		t.Fatalf("SaveSize %d, actual %d", q.SaveSize(), buf.Len())
	}
}
