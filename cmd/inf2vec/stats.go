package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"inf2vec/internal/diffusion"
	"inf2vec/internal/eval"
	"inf2vec/internal/stats"
)

// cmdStats runs the paper's §III data observations on any dataset: Table I
// statistics, the Figure 1/2 source/target frequency distributions with
// power-law fits, and the Figure 3 prior-active-friends CDF.
//
// Usage:
//
//	inf2vec stats -graph graph.tsv -log actions.tsv
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "edge-list TSV (required)")
	logPath := fs.String("log", "", "action-log TSV (required)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return runStats(os.Stdout, *graphPath, *logPath)
}

func runStats(w io.Writer, graphPath, logPath string) error {
	if graphPath == "" || logPath == "" {
		return fmt.Errorf("-graph and -log are required")
	}
	g, log, err := loadData(graphPath, logPath)
	if err != nil {
		return err
	}

	st := log.ComputeStats()
	fmt.Fprintf(w, "dataset statistics (Table I):\n")
	fmt.Fprintf(w, "  #User=%d  #Edge=%d  #Item=%d  #Action=%d\n",
		g.NumNodes(), g.NumEdges(), st.NumItems, st.NumActions)
	fmt.Fprintf(w, "  active users=%d  mean episode=%.1f  max episode=%d\n",
		st.ActiveUsers, st.MeanEpisode, st.MaxEpisode)

	pc := diffusion.CountPairs(g, log)
	fmt.Fprintf(w, "\nsocial influence pairs (Definition 1): %d observations, %d distinct\n",
		pc.Total(), pc.NumDistinct())

	describe := func(name string, freq []int64) {
		dist := stats.FrequencyDistribution(freq)
		fmt.Fprintf(w, "\n%s frequency distribution (%d distinct values):\n", name, len(dist))
		if len(dist) == 0 {
			fmt.Fprintf(w, "  (no %ss observed)\n", name)
			return
		}
		if alpha, err := stats.PowerLawAlpha(freq, 3); err == nil {
			fmt.Fprintf(w, "  power-law exponent (CSN MLE, xmin=3): %.2f\n", alpha)
		}
		if slope, err := stats.LogLogSlope(dist); err == nil {
			fmt.Fprintf(w, "  log-log slope: %.2f\n", slope)
		}
		max := dist[len(dist)-1]
		fmt.Fprintf(w, "  most extreme user: %d occurrences\n", max.Value)
	}
	describe("source user (Figure 1)", pc.SourceFrequencies())
	describe("target user (Figure 2)", pc.TargetFrequencies())

	counts := eval.PriorActiveFriendCounts(g, log)
	cdf := stats.NewCDF(counts)
	fmt.Fprintf(w, "\nCDF of prior-active friends at adoption (Figure 3):\n")
	for _, x := range []int{0, 1, 2, 5, 10, 20} {
		fmt.Fprintf(w, "  P(X<=%d) = %.3f\n", x, cdf.At(x))
	}
	return nil
}
