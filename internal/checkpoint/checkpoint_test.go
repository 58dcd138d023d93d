package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inf2vec/internal/embed"
	"inf2vec/internal/rng"
)

func sampleState(t testing.TB) *State {
	t.Helper()
	store, err := embed.New(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	store.Init(rng.New(11))
	return &State{
		ConfigHash: 0xdeadbeefcafef00d,
		LRScale:    0.25,
		EpochsDone: 3,
		Retries:    2,
		EpochLoss:  []float64{-1.5, -1.2, -1.1},
		EpochNanos: []int64{1e6, 2e6, 3e6},
		Recoveries: []Recovery{
			{Epoch: 1, LRScale: 0.5, Reinit: true},
			{Epoch: 2, LRScale: 0.25, Reinit: false},
		},
		Root:    rng.New(1).State(),
		Order:   rng.New(2).State(),
		Workers: [][4]uint64{rng.New(3).State(), rng.New(4).State()},
		Store:   store,
	}
}

func assertEqual(t *testing.T, got, want *State) {
	t.Helper()
	if got.ConfigHash != want.ConfigHash || got.LRScale != want.LRScale ||
		got.EpochsDone != want.EpochsDone || got.Retries != want.Retries {
		t.Fatalf("scalar fields differ: %+v vs %+v", got, want)
	}
	if len(got.EpochLoss) != len(want.EpochLoss) {
		t.Fatalf("stats length %d, want %d", len(got.EpochLoss), len(want.EpochLoss))
	}
	for i := range want.EpochLoss {
		if got.EpochLoss[i] != want.EpochLoss[i] || got.EpochNanos[i] != want.EpochNanos[i] {
			t.Fatalf("stat %d differs", i)
		}
	}
	if len(got.Recoveries) != len(want.Recoveries) {
		t.Fatalf("recovery count %d, want %d", len(got.Recoveries), len(want.Recoveries))
	}
	for i := range want.Recoveries {
		if got.Recoveries[i] != want.Recoveries[i] {
			t.Fatalf("recovery %d = %+v, want %+v", i, got.Recoveries[i], want.Recoveries[i])
		}
	}
	if got.Root != want.Root || got.Order != want.Order {
		t.Fatal("RNG states differ")
	}
	if len(got.Workers) != len(want.Workers) {
		t.Fatalf("worker count %d, want %d", len(got.Workers), len(want.Workers))
	}
	for i := range want.Workers {
		if got.Workers[i] != want.Workers[i] {
			t.Fatalf("worker state %d differs", i)
		}
	}
	if got.Store.NumUsers() != want.Store.NumUsers() || got.Store.Dim() != want.Store.Dim() {
		t.Fatal("store shape differs")
	}
	for u := int32(0); u < want.Store.NumUsers(); u++ {
		a, b := got.Store.SourceVec(u), want.Store.SourceVec(u)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("store row %d differs", u)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st := sampleState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, got, st)
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	st := sampleState(t)
	path := filepath.Join(t.TempDir(), "train.ckpt")
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a newer state; the rename must replace, not append.
	st.EpochsDone = 4
	st.EpochLoss = append(st.EpochLoss, -1.05)
	st.EpochNanos = append(st.EpochNanos, int64(4e6))
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, got, st)
	// No leftover temp files.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the checkpoint", len(entries))
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	st := sampleState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, 8, 20, len(full) / 2, len(full) - 5, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Errorf("truncated at %d: err = %v, want ErrBadFormat", cut, err)
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	st := sampleState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one bit at a spread of offsets, including the magic, counters,
	// the store body and the CRC trailer itself.
	for _, off := range []int{0, 7, 9, 30, len(full) / 2, len(full) - 20, len(full) - 2} {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x10
		if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("bit flip at %d: err = %v, want ErrBadFormat", off, err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "x", "I2VCKP\x01\x00", strings.Repeat("A", 64)} {
		if _, err := Load(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("garbage %q: err = %v, want ErrBadFormat", in, err)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadRejectsNonCanonical feeds checkpoints with a valid CRC that Save
// could not have written: a recovery flag other than 0 or 1, and a nested
// store in the legacy v1 layout. Accepting either would load a state that
// re-saves to different bytes.
func TestLoadRejectsNonCanonical(t *testing.T) {
	st := fixtureState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	resign := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}

	// Header (36 bytes), two stats (32), the recovery count (4), then the
	// recovery's epoch (4) and LR scale (8): its reinit byte is at 84.
	flag := append([]byte(nil), full...)
	if flag[84] != 1 {
		t.Fatalf("byte 84 is %d, not the recovery's reinit flag", flag[84])
	}
	flag[84] = 2

	storeOff := len(full) - 4 - int(st.Store.SaveSize())
	v1 := append([]byte(nil), full[:storeOff-8]...)
	v1 = binary.LittleEndian.AppendUint64(v1, uint64(st.Store.SaveSize()-4))
	v1 = append(v1, full[storeOff:len(full)-8]...) // the store minus its trailer
	v1[storeOff+6] = 1
	v1 = append(v1, 0, 0, 0, 0)

	for name, data := range map[string][]byte{"reinit flag 2": resign(flag), "nested v1 store": resign(v1)} {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
}
