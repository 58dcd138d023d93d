package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// craftedHeaders returns checkpoints that end right after a count field
// claiming the most entries the format ever allowed, each closed by a valid
// CRC trailer: 2^24 epoch stats, 2^20 recoveries, 2^20 worker streams.
func craftedHeaders() map[string][]byte {
	build := func(fields ...any) []byte {
		var buf bytes.Buffer
		buf.Write([]byte{'I', '2', 'V', 'C', 'K', 'P', Version, 0})
		// configHash, lrScale, epochsDone, retries
		fields = append([]any{uint64(1), 1.0, int32(0), int32(0)}, fields...)
		for _, f := range fields {
			binary.Write(&buf, binary.LittleEndian, f)
		}
		binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes()))
		return buf.Bytes()
	}
	var rngState [8]uint64 // root and order
	return map[string][]byte{
		"stats":      build(int32(1 << 24)),
		"recoveries": build(int32(0), int32(1<<20)),
		"workers":    build(int32(0), int32(0), rngState, int32(1<<20)),
	}
}

// TestLoadAllocationFollowsBytes feeds headers whose counts promise far more
// entries than the file holds. Load must reject each with ErrBadFormat while
// allocating no more than the bytes it read can justify.
func TestLoadAllocationFollowsBytes(t *testing.T) {
	for name, data := range craftedHeaders() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: a %d-byte checkpoint made Load allocate %.1f MiB", name, len(data), float64(alloc)/(1<<20))
		}
	}
}
