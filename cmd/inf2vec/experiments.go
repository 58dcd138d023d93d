package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"inf2vec/internal/experiments"
	"inf2vec/internal/obs"
	"inf2vec/internal/tsne"
)

// cmdExperiments reproduces the paper's evaluation section: every table
// (I–VI) and figure (1–3, 6–9) runs against the synthetic digg-like and
// flickr-like datasets and prints in the shape of the paper's tables.
//
// Usage:
//
//	inf2vec experiments                    # run everything at full scale
//	inf2vec experiments -run table2,fig9   # selected experiments
//	inf2vec experiments -quick             # reduced scale (~10x faster, noisier)
//	inf2vec experiments -svg ./figs        # additionally write Figure 6 SVG panels
//	inf2vec experiments -telemetry-out t.jsonl  # JSONL training telemetry for every run
//	inf2vec experiments -trace-out traces.jsonl # span trace of the invocation
func cmdExperiments(args []string) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	run := fs.String("run", "all", "comma-separated experiment list: table1..table6, fig1..fig3, fig6..fig9, seeds, or all")
	quick := fs.Bool("quick", false, "reduced-scale run")
	seed := fs.Uint64("seed", 1, "experiment seed")
	workers := fs.Int("workers", 0, "training workers for the baselines (0 = min(NumCPU, 8); any value yields the same models)")
	corpusWorkers := fs.Int("corpus-workers", 0, "corpus-generation workers (0 = GOMAXPROCS; any value yields the same corpus)")
	svgDir := fs.String("svg", "", "directory for Figure 6 SVG panels (empty = skip)")
	telemetryOut := fs.String("telemetry-out", "", "append one JSON training event per line to this file (all Inf2vec runs)")
	traceFlags := obs.RegisterTraceFlags(fs, 1) // one-shot run: keep every trace
	version := fs.Bool("version", false, "print version and exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		printVersion()
		return nil
	}
	traceCfg, closeTrace, err := traceFlags.Config()
	if err != nil {
		return err
	}
	defer closeInto(&err, closeTrace)
	ctx, stop := signalContext()
	defer stop()
	// One root span covers the whole invocation; every training run hangs
	// its epoch spans off it (the per-trace span cap truncates a full-scale
	// run, recorded as dropped_spans on the trace).
	tctx, root := obs.NewTracer(traceCfg).StartRoot(ctx, "experiments")
	root.SetAttr("run", *run)
	root.SetAttr("quick", *quick)
	err = runAll(tctx, *run, *quick, *seed, *workers, *corpusWorkers, *svgDir, *telemetryOut)
	switch {
	case err == nil:
		root.End()
	case errors.Is(err, context.Canceled):
		root.EndWith("canceled")
	default:
		root.EndWith("error")
	}
	return err
}

// knownExperiments is every name -run accepts besides "all".
var knownExperiments = map[string]bool{
	"table1": true, "table2": true, "table3": true, "table4": true,
	"table5": true, "table6": true, "fig1": true, "fig2": true,
	"fig3": true, "fig6": true, "fig7": true, "fig8": true, "fig9": true,
	"seeds": true,
}

func runAll(ctx context.Context, list string, quick bool, seed uint64, workers, corpusWorkers int, svgDir, telemetryOut string) (err error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !knownExperiments[name] {
			return fmt.Errorf("unknown experiment %q (want table1..table6, fig1..fig3, fig6..fig9, seeds, or all)", name)
		}
		want[name] = true
	}
	all := want["all"]
	interrupted := false
	// Experiments stop at section boundaries on SIGINT/SIGTERM: sections
	// already printed stay valid, the rest are skipped.
	pick := func(name string) bool {
		if ctx.Err() != nil {
			interrupted = true
			return false
		}
		return all || want[name]
	}

	sink, closeSink, err := telemetrySink(telemetryOut, func(err error) {
		fmt.Fprintln(os.Stderr, "inf2vec experiments: writing telemetry event:", err)
	})
	if err != nil {
		return err
	}
	defer closeInto(&err, closeSink)
	// The context reaches every training loop (Inf2vec and all baselines),
	// so a signal also drains mid-section training at the next epoch/round
	// boundary rather than waiting the section out.
	scale := 1
	if quick {
		scale = 4
	}
	s := experiments.NewSuite(experiments.Options{
		Seed: seed, Scale: scale,
		Workers: workers, CorpusWorkers: corpusWorkers,
		Context: ctx, Telemetry: sink,
	})
	out := os.Stdout
	start := time.Now()

	if pick("table1") {
		rows, err := s.TableI()
		if err != nil {
			return err
		}
		if err := experiments.RenderTableI(out, rows); err != nil {
			return err
		}
	}
	if pick("fig1") {
		figs, err := s.Figure1()
		if err != nil {
			return err
		}
		if err := experiments.RenderFrequencyFigures(out, "Figure 1 (source users)", figs); err != nil {
			return err
		}
	}
	if pick("fig2") {
		figs, err := s.Figure2()
		if err != nil {
			return err
		}
		if err := experiments.RenderFrequencyFigures(out, "Figure 2 (target users)", figs); err != nil {
			return err
		}
	}
	if pick("fig3") {
		figs, err := s.Figure3()
		if err != nil {
			return err
		}
		if err := experiments.RenderCDFFigures(out, figs); err != nil {
			return err
		}
	}
	if pick("table2") {
		results, err := s.TableII()
		if err != nil {
			return err
		}
		if err := experiments.RenderMethodTable(out, "Table II: activation prediction", results); err != nil {
			return err
		}
	}
	if pick("table3") {
		results, err := s.TableIII()
		if err != nil {
			return err
		}
		if err := experiments.RenderMethodTable(out, "Table III: diffusion prediction", results); err != nil {
			return err
		}
	}
	if pick("table4") {
		rows, err := s.TableIV()
		if err != nil {
			return err
		}
		if err := experiments.RenderTableIV(out, rows); err != nil {
			return err
		}
	}
	if pick("table5") {
		rows, err := s.TableV()
		if err != nil {
			return err
		}
		if err := experiments.RenderTableV(out, rows); err != nil {
			return err
		}
	}
	if pick("fig6") {
		figs, err := s.Figure6()
		if err != nil {
			return err
		}
		if err := experiments.RenderVisualization(out, figs); err != nil {
			return err
		}
		if svgDir != "" {
			if err := writeSVGs(svgDir, figs); err != nil {
				return err
			}
		}
	}
	if pick("fig7") {
		figs, err := s.Figure7()
		if err != nil {
			return err
		}
		if err := experiments.RenderSweep(out, "Figure 7: MAP vs dimension K", "K", figs); err != nil {
			return err
		}
	}
	if pick("fig8") {
		figs, err := s.Figure8()
		if err != nil {
			return err
		}
		if err := experiments.RenderSweep(out, "Figure 8: MAP vs context length L", "L", figs); err != nil {
			return err
		}
	}
	if pick("fig9") {
		figs, err := s.Figure9()
		if err != nil {
			return err
		}
		if err := experiments.RenderTiming(out, figs); err != nil {
			return err
		}
	}
	if pick("seeds") {
		rows, err := s.SeedsAnytime()
		if err != nil {
			return err
		}
		if err := experiments.RenderSeedsAnytime(out, rows); err != nil {
			return err
		}
	}
	if pick("table6") {
		res, err := s.TableVI()
		if err != nil {
			return err
		}
		if err := experiments.RenderTableVI(out, res); err != nil {
			return err
		}
	}
	if interrupted {
		fmt.Fprintln(out, "interrupted: remaining experiments skipped")
	}
	fmt.Fprintf(out, "total wall clock: %s\n", time.Since(start).Round(time.Second))
	return nil
}

func writeSVGs(dir string, figs []experiments.VisualizationResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fig := range figs {
		path := filepath.Join(dir, fmt.Sprintf("figure6-%s.svg", strings.ToLower(fig.Method)))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 6: %s (top-5 pair proximity %.3f)", fig.Method, fig.Proximity)
		if err := tsne.WriteSVG(f, fig.Layout, fig.Highlight, title); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
