package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/embed"
)

func writeFixture(t *testing.T, dir string) (graphPath, logPath string) {
	t.Helper()
	graphPath = filepath.Join(dir, "graph.tsv")
	logPath = filepath.Join(dir, "actions.tsv")
	var edges strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&edges, "%d\t%d\n", i, (i+1)%10)
		fmt.Fprintf(&edges, "%d\t%d\n", i, (i+3)%10)
	}
	if err := os.WriteFile(graphPath, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var acts strings.Builder
	for it := 0; it < 3; it++ {
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&acts, "%d\t%d\t%d\n", (it*2+j)%10, it, it*100+j)
		}
	}
	if err := os.WriteFile(logPath, []byte(acts.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return graphPath, logPath
}

func TestOnceDrainsBacklogAndIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	graphPath, logPath := writeFixture(t, dir)
	modelPath := filepath.Join(dir, "model.i2v")
	args := []string{
		"-graph", graphPath, "-log", logPath, "-model", modelPath,
		"-dim", "8", "-len", "4", "-iters", "2", "-neg", "2", "-seed", "7",
		"-once", "-log-level", "error",
	}
	if err := cmdPipeline(args); err != nil {
		t.Fatal(err)
	}
	st, err := embed.LoadFile(modelPath)
	if err != nil {
		t.Fatalf("no valid model published: %v", err)
	}
	if st.NumUsers() != 10 || st.Dim() != 8 {
		t.Fatalf("model shape %dx%d, want 10x8", st.NumUsers(), st.Dim())
	}
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := actionlog.LoadCursor(logPath + ".offset")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Offset != info.Size() {
		t.Fatalf("cursor offset %d, want log size %d", cur.Offset, info.Size())
	}

	// A second -once run with no new data publishes nothing and leaves the
	// model bytes untouched.
	before, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdPipeline(args); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("idle -once run republished the model")
	}

	// New data on a third run advances the cursor.
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("5\t9\t900\n6\t9\t901\n7\t9\t902\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := cmdPipeline(args); err != nil {
		t.Fatal(err)
	}
	cur2, err := actionlog.LoadCursor(logPath + ".offset")
	if err != nil {
		t.Fatal(err)
	}
	if cur2.Offset <= cur.Offset {
		t.Fatalf("cursor did not advance past appended data: %d -> %d", cur.Offset, cur2.Offset)
	}
}

func TestPipelineVersionFlag(t *testing.T) {
	if err := cmdPipeline([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
}

func TestRequiredFlags(t *testing.T) {
	if err := cmdPipeline(nil); err == nil {
		t.Fatal("missing required flags accepted")
	}
	if err := cmdPipeline([]string{"-graph", "g", "-log", "l", "-model", "m", "-serve-addr", ":0", "-notify-pid", "1"}); err == nil {
		t.Fatal("-serve-addr with -notify-pid accepted")
	}
}
