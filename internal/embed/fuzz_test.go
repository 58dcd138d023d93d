package embed

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"inf2vec/internal/rng"
)

// FuzzLoad asserts the store loader never panics and never allocates more
// than the input can justify, and that every accepted store is usable.
// Regression seeds (valid stores, truncations, version/shape corruption)
// live in testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	valid := func(n int32, k int) []byte {
		s, err := New(n, k)
		if err != nil {
			f.Fatal(err)
		}
		s.Init(rng.New(1))
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	base := valid(3, 2)
	legacy := append([]byte(nil), base[:len(base)-4]...) // strip CRC trailer
	legacy[6] = 1                                        // legacy version byte
	corruptCRC := append([]byte(nil), base...)
	corruptCRC[len(corruptCRC)-1] ^= 0xFF
	bitFlip := append([]byte(nil), base...)
	bitFlip[20] ^= 0x01 // body corruption the CRC must catch
	seeds := [][]byte{
		base,
		valid(1, 1),
		legacy,
		corruptCRC,
		bitFlip,
		base[:len(base)-3],       // truncated trailer
		base[:len(base)-7],       // truncated body
		append(base[:8:8], 0xFF), // truncated header
		append(base, 0x00),       // trailing garbage
		{},
	}
	futureVersion := append([]byte(nil), base...)
	futureVersion[6] = 4
	seeds = append(seeds, futureVersion)
	hugeShape := append([]byte(nil), base[:8]...)
	hugeShape = append(hugeShape, 0xFF, 0xFF, 0xFF, 0x7E, 0x01, 0x00, 0x00, 0x00) // n≈2^31, k=1
	seeds = append(seeds, hugeShape)

	// Version-3 (int8 quantized) seeds: a valid file, a semantically bad
	// scale under a valid CRC, and a truncated code block.
	validV3 := func(n int32, k int) []byte {
		s, err := New(n, k)
		if err != nil {
			f.Fatal(err)
		}
		s.Init(rng.New(2))
		q, _ := Quantize(s)
		var buf bytes.Buffer
		if err := q.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	v3 := validV3(3, 2)
	badScale := append([]byte(nil), v3...)
	binary.LittleEndian.PutUint32(badScale[16:], math.Float32bits(-1)) // negative source scale
	sum := crc32.ChecksumIEEE(badScale[:len(badScale)-4])
	binary.LittleEndian.PutUint32(badScale[len(badScale)-4:], sum) // keep the CRC valid
	seeds = append(seeds, v3, validV3(1, 1), badScale, v3[:len(v3)-9], v3[:20])
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Allocation must be justified by real bytes: the file fully
		// materialized the store, so its size equals SaveSize plus nothing —
		// or SaveSize minus the 4-byte CRC trailer for legacy v1 files, or
		// the (smaller) v3 size when the input was an int8 quantized store.
		sz := s.SaveSize()
		qsz := quantSaveSize(int64(s.NumUsers()), int64(s.Dim()))
		if got := int64(len(data)); got != sz && got != sz-4 && got != qsz {
			t.Fatalf("accepted %d bytes for a %d-byte (or %d-byte v3) store", len(data), sz, qsz)
		}
		if s.NumUsers() <= 0 || s.Dim() <= 0 {
			t.Fatalf("degenerate shape %dx%d accepted", s.NumUsers(), s.Dim())
		}
		if v := s.Score(0, s.NumUsers()-1); math.IsNaN(v) {
			// NaN parameters are representable; scoring just must not panic.
			_ = v
		}
	})
}
