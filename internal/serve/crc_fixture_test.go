package serve

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
)

// TestStatzCRCFixtures pins the model CRC /debug/statz reports for the embed
// package's format fixtures: the CRC trailer for v2 and v3, the CRC-32 of the
// whole file for v1, which has no trailer. The same value seeds the ANN index
// and is what the pipeline's publish is awaited by, so it must not move.
// Precision does not enter it.
func TestStatzCRCFixtures(t *testing.T) {
	for _, c := range []struct{ file, crc string }{
		{"store_v1.i2v", "bae60162"},
		{"store_v2.i2v", "3300363a"},
		{"store_v3.i2v", "74eff71e"},
	} {
		path := filepath.Join("..", "embed", "testdata", c.file)
		for _, precision := range []string{"fp32", "int8"} {
			s := newPrecisionServer(t, path, precision, nil)
			ts := httptest.NewServer(s.Handler())
			var snap Snapshot
			code := getJSON(t, ts.Client(), ts.URL+"/debug/statz", &snap)
			ts.Close()
			if code != 200 {
				t.Fatalf("%s at %s: statz = %d", c.file, precision, code)
			}
			if snap.Model.CRC32 != c.crc {
				t.Errorf("%s at %s: statz crc32 = %s, want %s", c.file, precision, snap.Model.CRC32, c.crc)
			}
		}
	}
}
