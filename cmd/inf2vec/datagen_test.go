package main

import (
	"os"
	"path/filepath"
	"testing"

	"inf2vec"
)

func TestRunWritesLoadableFiles(t *testing.T) {
	dir := t.TempDir()
	if err := runDatagen("digg", 1, 200, 30, dir); err != nil {
		t.Fatal(err)
	}
	g, err := inf2vec.ReadGraphFile(filepath.Join(dir, "graph.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d, want 200", g.NumNodes())
	}
	log, err := inf2vec.ReadActionLogFile(filepath.Join(dir, "actions.tsv"), g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if log.NumActions() == 0 {
		t.Fatal("empty action log written")
	}
}

func TestRunFlickrPreset(t *testing.T) {
	dir := t.TempDir()
	if err := runDatagen("flickr", 2, 150, 20, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "graph.tsv")); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownPreset(t *testing.T) {
	if err := runDatagen("myspace", 1, 0, 0, t.TempDir()); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
