package embed

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"inf2vec/internal/rng"
)

// The files under testdata/store_v{1,2,3}.i2v pin every byte of the three
// store formats. They hold fixtureStore: v2 is its Save output, v3 the Save
// output of its quantization, and v1 the v2 bytes without the CRC trailer
// and with version byte 1 (no current code writes v1). A change to the
// framing or to the field order fails here.

// fixtureStore is the deterministic input behind the format fixtures.
func fixtureStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(rng.New(2018))
	for u := int32(0); u < 5; u++ {
		*s.BiasSource(u) = 0.125 * float32(u)
		*s.BiasTarget(u) = -0.0625 * float32(u)
	}
	return s
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestFixtureV2(t *testing.T) {
	want := readFixture(t, "store_v2.i2v")
	var saved bytes.Buffer
	if err := fixtureStore(t).Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Fatal("Save no longer writes the v2 fixture bytes")
	}
	s, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := s.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("Load→Save of the v2 fixture changed its bytes")
	}
}

func TestFixtureV1(t *testing.T) {
	v1, v2 := readFixture(t, "store_v1.i2v"), readFixture(t, "store_v2.i2v")
	legacy := append([]byte(nil), v2[:len(v2)-4]...)
	legacy[6] = 1
	if !bytes.Equal(v1, legacy) {
		t.Fatal("v1 fixture is not the v2 fixture without its trailer")
	}
	s, err := Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), v2) {
		t.Fatal("Load(v1 fixture)→Save does not give the v2 fixture")
	}
}

func TestFixtureV3(t *testing.T) {
	want := readFixture(t, "store_v3.i2v")
	path := filepath.Join(t.TempDir(), "store_v3.i2v")
	if err := fixtureStore(t).SaveFilePrecision(path, PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, want) {
		t.Fatal("SaveFilePrecision(int8) no longer writes the v3 fixture bytes")
	}
	f, err := os.Open(filepath.Join("testdata", "store_v3.i2v"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	q, st, _, err := LoadQuantized(f)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("verbatim v3 load reported quantization stats %+v", st)
	}
	var again bytes.Buffer
	if err := q.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("Load→Save of the v3 fixture changed its bytes")
	}
}
