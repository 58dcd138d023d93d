package benchgate

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Recording reports whether INF2VEC_WRITE_BENCH asks the bench recorders
// (the TestRecord*Bench tests) to write their reports.
func Recording() bool { return os.Getenv("INF2VEC_WRITE_BENCH") != "" }

// Record ends a bench recorder. Unless Recording, it only logs report.
// Otherwise it writes report as indented JSON to file in INF2VEC_BENCH_DIR,
// or at the repository root when that is unset: two levels above the
// recorder's package directory, as every recorder sits in internal/<name>.
// A recorder checks its write-time bounds before it calls Record.
func Record(t testing.TB, file string, report map[string]any) {
	t.Helper()
	if !Recording() {
		t.Logf("bench (not recorded; set INF2VEC_WRITE_BENCH=1): %+v", report)
		return
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := os.Getenv("INF2VEC_BENCH_DIR")
	if dir == "" {
		dir = filepath.Join("..", "..")
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
