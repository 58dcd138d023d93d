package actionlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzReadTSV asserts the action-log reader never panics on corrupt input
// and that every accepted log satisfies its invariants: users inside the
// universe, episodes chronologically ordered, each user at most once per
// episode. Regression seeds live in testdata/fuzz/FuzzReadTSV.
func FuzzReadTSV(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte("0\t0\t1\n1\t0\t2\n"),
		[]byte("# log\n\n2 5 1.25\r\n"),
		[]byte("2147483647\t0\t1\n"),
		[]byte("2147483646\t0\t1\n"),
		[]byte("-3\t0\t1\n"),
		[]byte("0\t-1\t1\n"),
		[]byte("0\t0\tNaN\n0\t0\t1\n"),
		[]byte("0\t0\t+Inf\n"),
		[]byte("0\t0\n"),
		[]byte("x\ty\tz\n"),
		[]byte("1\t1\t1e308\n1\t1\t-1e308\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadTSV(bytes.NewReader(data), 0)
		if err != nil {
			return
		}
		n := l.NumUsers()
		if n <= 0 {
			t.Fatalf("accepted log with universe %d", n)
		}
		l.Episodes(func(e *Episode) {
			seen := make(map[int32]bool, len(e.Records))
			for i, r := range e.Records {
				if r.User < 0 || r.User >= n {
					t.Fatalf("user %d outside universe %d", r.User, n)
				}
				if seen[r.User] {
					t.Fatalf("user %d twice in episode %d", r.User, e.Item)
				}
				seen[r.User] = true
				// NaN timestamps may not break ordering of the non-NaN
				// records; comparisons with NaN are vacuously false, so only
				// check adjacent comparable pairs.
				if i > 0 && r.Time < e.Records[i-1].Time {
					t.Fatalf("episode %d out of order at %d", e.Item, i)
				}
			}
		})
	})
}

// FuzzLoadCursor throws arbitrary bytes at the cursor decoder. The same
// decoder reads the resume cursor and the pipeline's publish intent, both
// during crash recovery. It must never panic, and any input it accepts must
// re-encode to identical bytes. When fix is set the harness rewrites the CRC
// trailer first, so that mutations reach the fields behind it.
func FuzzLoadCursor(f *testing.F) {
	negative := encodeCursor(Cursor{Offset: 1, ModelCRC: 2})
	negative[15] = 0x80 // offset's sign bit
	for _, c := range []Cursor{fixtureCursor, {}, {Offset: 1 << 40, ModelCRC: 0xffffffff}} {
		full := encodeCursor(c)
		seeds := [][]byte{full, full[:23], full[:8], full[:7], append(full, 0), negative, nil}
		for _, off := range []int{0, 6, 7, 9, 17, 22} {
			flip := append([]byte(nil), full...)
			flip[off] ^= 0x01
			seeds = append(seeds, flip)
		}
		for _, s := range seeds {
			f.Add(s, false)
			f.Add(s, true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix && len(data) >= 12 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		}
		c, err := decodeCursor(bytes.NewReader(data))
		if err != nil {
			return
		}
		if c.Offset < 0 {
			t.Fatalf("accepted negative offset %d", c.Offset)
		}
		if out := encodeCursor(c); !bytes.Equal(out, data) {
			t.Fatalf("accepted cursor re-encodes to different bytes:\n in  %x\n out %x", data, out)
		}
	})
}
