package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inf2vec"
	"inf2vec/internal/actionlog"
	"inf2vec/internal/datagen"
	"inf2vec/internal/graph"
)

func TestRunProducesSVG(t *testing.T) {
	cfg := datagen.DiggLike(9)
	cfg.NumUsers = 200
	cfg.NumItems = 50
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.tsv")
	logPath := filepath.Join(dir, "actions.tsv")
	modelPath := filepath.Join(dir, "model.i2v")
	outPath := filepath.Join(dir, "layout.svg")

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

	model, err := inf2vec.Train(ds.Graph, ds.Log, inf2vec.Config{
		Dim: 8, ContextLength: 10, Iterations: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}

	if err := runVisualize(graphPath, logPath, modelPath, outPath, 50, 5, 10, 60, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("output is not SVG")
	}
}

func TestRunVisualizeValidation(t *testing.T) {
	if err := runVisualize("", "", "", "out.svg", 10, 5, 10, 50, 1); err == nil {
		t.Fatal("missing inputs accepted")
	}
}
