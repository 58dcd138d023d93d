package actionlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
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

// FuzzTail asserts the tailer's resume contract, which crash recovery
// relies on: tailing a log cut at any byte and then resuming from the
// returned offset reads exactly what one tail of the whole log reads.
// Every returned offset is the start offset or follows a '\n', and none
// lies past the bytes the call saw.
func FuzzTail(f *testing.F) {
	var actions []Action
	for i := 0; i < 12; i++ {
		actions = append(actions, Action{User: int32(i * 7 % 10), Item: int32(i % 3), Time: float64(i) * 1.5})
	}
	l, err := FromActions(10, actions)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, l); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	for _, cut := range []int{0, 1, len(valid) / 3, len(valid) / 2, len(valid) - 1, len(valid)} {
		f.Add(valid, uint(cut))
	}
	f.Add(append(append([]byte(nil), valid...), "3\t1\t9"...), uint(len(valid)+2))
	f.Add([]byte("0\t0\t1\r\n\n# c\n1\t0\tNaN\nx\ty\tz\n2\t0\t3\n"), uint(12))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		cut %= uint(len(data)) + 1
		onBoundary := func(call string, off, from int64, n int) {
			t.Helper()
			if off < from || off > int64(n) || (off != from && data[off-1] != '\n') {
				t.Fatalf("%s: offset %d is not a line boundary in [%d, %d]", call, off, from, n)
			}
		}
		whole, offW, errW := Tail(bytes.NewReader(data), 0)
		onBoundary("whole", offW, 0, len(data))
		first, off1, err1 := Tail(bytes.NewReader(data[:cut]), 0)
		onBoundary("first", off1, 0, int(cut))
		if err1 != nil {
			if errW == nil || off1 != offW || !sameActions(first, whole) {
				t.Fatalf("cut %d: first tail failed (%v) at %d with %d actions; whole tail: %v at %d with %d",
					cut, err1, off1, len(first), errW, offW, len(whole))
			}
			return
		}
		rest, off2, err2 := Tail(bytes.NewReader(data[off1:]), off1)
		onBoundary("resumed", off2, off1, len(data))
		if off2 != offW || (err2 == nil) != (errW == nil) || !sameActions(append(first, rest...), whole) {
			t.Fatalf("cut %d: resumed tails end at %d (err %v) with %d+%d actions; whole tail at %d (err %v) with %d",
				cut, off2, err2, len(first), len(rest), offW, errW, len(whole))
		}
	})
}

// sameActions compares action lists bit for bit, so that NaN times match.
func sameActions(a, b []Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].User != b[i].User || a[i].Item != b[i].Item ||
			math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) {
			return false
		}
	}
	return true
}
