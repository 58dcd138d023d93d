package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/datagen"
	"inf2vec/internal/graph"
)

func TestRunPrintsObservations(t *testing.T) {
	cfg := datagen.DiggLike(13)
	cfg.NumUsers = 200
	cfg.NumItems = 40
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.tsv")
	logPath := filepath.Join(dir, "actions.tsv")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(gf, ds.Graph); err != nil {
		t.Fatal(err)
	}
	gf.Close()
	lf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := actionlog.WriteTSV(lf, ds.Log); err != nil {
		t.Fatal(err)
	}
	lf.Close()

	var sb strings.Builder
	if err := runStats(&sb, graphPath, logPath); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table I", "influence pairs", "Figure 1", "Figure 2", "Figure 3", "P(X<=0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	var sb strings.Builder
	if err := runStats(&sb, "", ""); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if err := runStats(&sb, "/nonexistent/graph.tsv", "/nonexistent/log.tsv"); err == nil {
		t.Fatal("nonexistent files accepted")
	}
}
