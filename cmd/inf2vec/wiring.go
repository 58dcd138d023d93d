package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"inf2vec"
	"inf2vec/internal/obs"
)

// The process wiring the subcommands share. A subcommand calls a helper
// only if it has the helper's flags.

// errUsage marks a command line the flag package rejected; the flag package
// has already printed why, with the subcommand's usage.
var errUsage = errors.New("bad command line")

// parseFlags parses args into fs, a flag.ContinueOnError set, so that
// exitCode, not the flag package, decides the exit status.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	return nil
}

// exitCode reports err on stderr under the subcommand's name and returns
// the exit status: 0 on success and -h, 2 for a rejected command line, 1
// otherwise.
func exitCode(cmd string, err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "inf2vec %s: interrupted\n", cmd)
	default:
		fmt.Fprintf(os.Stderr, "inf2vec %s: %v\n", cmd, err)
	}
	return 1
}

// closeInto, deferred, closes a file the caller wrote and reports the close
// error through *err unless an earlier error stands.
func closeInto(err *error, closer func() error) {
	if cerr := closer(); *err == nil {
		*err = cerr
	}
}

// printVersion prints the build's version line.
func printVersion() {
	fmt.Printf("inf2vec %s (%s)\n", obs.Version(), obs.GoVersion())
}

// logFlags registers -log-format, defaulting to format, and -log-level on
// fs; the returned func builds their stderr logger once fs is parsed.
func logFlags(fs *flag.FlagSet, format string) func() (*slog.Logger, error) {
	logFormat := fs.String("log-format", format, "log format: text or json")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	return func() (*slog.Logger, error) {
		return obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	}
}

// startDebug serves pprof, reg's /metrics and tr's /debug/traces on addr,
// when one is given, and logs the bound address.
func startDebug(logger *slog.Logger, addr string, reg *obs.Registry, tr *obs.Tracer) error {
	if addr == "" {
		return nil
	}
	bound, err := obs.StartDebugServer(addr, reg, tr)
	if err != nil {
		return err
	}
	logger.Info("debug server listening", "addr", bound)
	return nil
}

// signalContext returns a context the first SIGINT or SIGTERM cancels, to
// start a drain. The handler is gone before the context ends, so a second
// signal kills the process at once.
func signalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigs:
		case <-ctx.Done():
		}
		signal.Stop(sigs)
		cancel()
	}()
	return ctx, cancel
}

// telemetrySink creates the -telemetry-out file at path, if any, and returns
// a hook writing each training event to it as a JSON line (write errors go
// to onErr) and the file's close.
func telemetrySink(path string, onErr func(error)) (func(inf2vec.TrainEvent), func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	w, err := obs.CreateJSONL(path)
	if err != nil {
		return nil, nil, err
	}
	return func(e inf2vec.TrainEvent) {
		if err := w.Write(e); err != nil {
			onErr(err)
		}
	}, w.Close, nil
}

// loadData reads the graph and the full action log, sized to the graph.
func loadData(graphPath, logPath string) (*inf2vec.Graph, *inf2vec.ActionLog, error) {
	g, err := inf2vec.ReadGraphFile(graphPath)
	if err != nil {
		return nil, nil, err
	}
	log, err := inf2vec.ReadActionLogFile(logPath, g.NumNodes())
	if err != nil {
		return nil, nil, err
	}
	return g, log, nil
}
