package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadCheckpoint throws arbitrary bytes at the checkpoint decoder, the
// reader a restart runs on whatever a crash left behind. Load must never
// panic, and any input it accepts must re-save to identical bytes, so no
// field is read leniently. When fix is set the harness rewrites the CRC
// trailer first, so that mutations reach the field parsing behind it.
func FuzzLoadCheckpoint(f *testing.F) {
	var sample bytes.Buffer
	if err := Save(&sample, sampleState(f)); err != nil {
		f.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "state.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, full := range [][]byte{fixture, sample.Bytes()} {
		seeds := [][]byte{full, full[:len(full)-1], full[:len(full)/2], full[:9], nil}
		for _, off := range []int{7, 20, 44, len(full) / 2, len(full) - 6} {
			flip := append([]byte(nil), full...)
			flip[off] ^= 0x04
			seeds = append(seeds, flip)
		}
		for _, s := range seeds {
			f.Add(s, false)
			f.Add(s, true)
		}
	}
	for _, s := range craftedHeaders() {
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix && len(data) >= 12 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		}
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted checkpoint re-saves to different bytes:\n in  %x\n out %x", data, buf.Bytes())
		}
	})
}
