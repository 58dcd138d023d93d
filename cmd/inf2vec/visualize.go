package main

import (
	"flag"
	"fmt"
	"os"

	"inf2vec"
	"inf2vec/internal/diffusion"
	"inf2vec/internal/tsne"
)

// cmdVisualize renders a trained influence embedding as a 2-D t-SNE
// scatter plot (the paper's Figure 6): the nodes participating in the most
// frequent influence pairs are embedded, and the top-5 pairs highlighted.
//
// Usage:
//
//	inf2vec visualize -graph graph.tsv -log actions.tsv -model model.i2v -out layout.svg
func cmdVisualize(args []string) error {
	fs := flag.NewFlagSet("visualize", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "edge-list TSV (required)")
	logPath := fs.String("log", "", "action-log TSV (required)")
	modelPath := fs.String("model", "", "trained model file (required)")
	out := fs.String("out", "layout.svg", "output SVG path")
	topPairs := fs.Int("pairs", 300, "number of most frequent influence pairs whose nodes are plotted")
	highlight := fs.Int("highlight", 5, "number of top pairs to highlight")
	perplexity := fs.Float64("perplexity", 20, "t-SNE perplexity")
	iters := fs.Int("iters", 400, "t-SNE iterations")
	seed := fs.Uint64("seed", 1, "t-SNE seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return runVisualize(*graphPath, *logPath, *modelPath, *out, *topPairs, *highlight, *perplexity, *iters, *seed)
}

func runVisualize(graphPath, logPath, modelPath, out string, topPairs, highlight int, perplexity float64, iters int, seed uint64) error {
	if graphPath == "" || logPath == "" || modelPath == "" {
		return fmt.Errorf("-graph, -log and -model are required")
	}
	g, log, err := loadData(graphPath, logPath)
	if err != nil {
		return err
	}
	model, err := inf2vec.LoadModelFile(modelPath)
	if err != nil {
		return err
	}

	pc := diffusion.CountPairs(g, log)
	top := pc.TopPairs(topPairs)
	if len(top) < 2 {
		return fmt.Errorf("only %d influence pairs in the log; nothing to plot", len(top))
	}
	if highlight > len(top) {
		highlight = len(top)
	}

	index := make(map[int32]int)
	var users []int32
	add := func(u int32) int {
		if i, ok := index[u]; ok {
			return i
		}
		index[u] = len(users)
		users = append(users, u)
		return len(users) - 1
	}
	var marks [][2]int
	for i, p := range top {
		a, b := add(p.Pair.Source), add(p.Pair.Target)
		if i < highlight {
			marks = append(marks, [2]int{a, b})
		}
	}

	// Concatenate [S_u ; T_u], as the paper does for visualization.
	x := make([][]float32, len(users))
	for i, u := range users {
		x[i] = append(model.SourceEmbedding(u), model.TargetEmbedding(u)...)
	}
	layout, err := tsne.Embed(x, tsne.Config{
		Perplexity: perplexity, Iterations: iters, Seed: seed,
	})
	if err != nil {
		return err
	}
	prox, err := tsne.PairProximity(layout, marks)
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Inf2vec embedding, %d nodes (top-%d pair proximity %.3f)", len(users), highlight, prox)
	if err := tsne.WriteSVG(f, layout, marks, title); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("embedded %d nodes; top-%d pair proximity ratio %.3f (lower = pairs closer than chance)\n",
		len(users), highlight, prox)
	fmt.Println("wrote", out)
	return nil
}
