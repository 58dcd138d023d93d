package actionlog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fixtureCursor is the input behind testdata/cursor.offset. The pipeline's
// publish intent is the same format at another path.
var fixtureCursor = Cursor{Offset: 1234567, ModelCRC: 0x89abcdef}

// TestFixtureCursor pins every byte of the cursor format: SaveCursor of the
// fixture input must reproduce the committed file, and LoadCursor followed
// by SaveCursor must give it back.
func TestFixtureCursor(t *testing.T) {
	fixture := filepath.Join("testdata", "cursor.offset")
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saved := filepath.Join(dir, "saved")
	if err := SaveCursor(saved, fixtureCursor); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(saved); !bytes.Equal(got, want) {
		t.Fatalf("SaveCursor wrote %x, fixture holds %x", got, want)
	}
	c, err := LoadCursor(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if c != fixtureCursor {
		t.Fatalf("LoadCursor = %+v, want %+v", c, fixtureCursor)
	}
	again := filepath.Join(dir, "again")
	if err := SaveCursor(again, c); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(again); !bytes.Equal(got, want) {
		t.Fatalf("LoadCursor→SaveCursor wrote %x, fixture holds %x", got, want)
	}
}
