package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/datagen"
	"inf2vec/internal/graph"
)

// cmdDatagen emits synthetic social-influence datasets — the digg-like and
// flickr-like stand-ins for the paper's evaluation data — as TSV files: a
// directed edge list (graph.tsv) and an action log (actions.tsv).
//
// Usage:
//
//	inf2vec datagen -preset digg -seed 1 -out ./data/digg
//	inf2vec datagen -preset flickr -users 500 -items 80 -out ./data/small
func cmdDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	preset := fs.String("preset", "digg", `dataset preset: "digg" or "flickr"`)
	seed := fs.Uint64("seed", 1, "generation seed")
	users := fs.Int("users", 0, "override number of users (0 = preset default)")
	items := fs.Int("items", 0, "override number of items (0 = preset default)")
	out := fs.String("out", ".", "output directory (created if missing)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return runDatagen(*preset, *seed, *users, *items, *out)
}

func runDatagen(preset string, seed uint64, users, items int, out string) error {
	var cfg datagen.Config
	switch preset {
	case "digg":
		cfg = datagen.DiggLike(seed)
	case "flickr":
		cfg = datagen.FlickrLike(seed)
	default:
		return fmt.Errorf("unknown preset %q (want digg or flickr)", preset)
	}
	if users > 0 {
		cfg.NumUsers = int32(users)
	}
	if items > 0 {
		cfg.NumItems = int32(items)
	}

	ds, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	graphPath := filepath.Join(out, "graph.tsv")
	gf, err := os.Create(graphPath)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(gf, ds.Graph); err != nil {
		gf.Close()
		return err
	}
	if err := gf.Close(); err != nil {
		return err
	}

	logPath := filepath.Join(out, "actions.tsv")
	lf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	if err := actionlog.WriteTSV(lf, ds.Log); err != nil {
		lf.Close()
		return err
	}
	if err := lf.Close(); err != nil {
		return err
	}

	st := ds.Log.ComputeStats()
	fmt.Printf("%s: %d users, %d edges, %d items, %d actions\n",
		cfg.Name, ds.Graph.NumNodes(), ds.Graph.NumEdges(), st.NumItems, st.NumActions)
	fmt.Printf("wrote %s and %s\n", graphPath, logPath)
	return nil
}
