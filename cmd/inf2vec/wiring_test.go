package main

import (
	"errors"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// TestSignalContextSecondSignalKills checks the two-signal convention of
// train, experiments and pipeline: the first SIGINT ends the context so the
// subcommand can drain, and a second SIGINT kills the process. The test
// re-runs its own binary as a child that signals itself twice, and the
// parent checks that the child died of the second signal.
func TestSignalContextSecondSignalKills(t *testing.T) {
	if os.Getenv("INF2VEC_SIGNAL_CHILD") == "1" {
		ctx, stop := signalContext()
		defer stop()
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		<-ctx.Done()
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		// Reached only when the second signal was swallowed.
		time.Sleep(5 * time.Second)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSignalContextSecondSignalKills$")
	cmd.Env = append(os.Environ(), "INF2VEC_SIGNAL_CHILD=1")
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child survived its second SIGINT: err = %v", err)
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Fatalf("child ended with %v, want death by SIGINT", exit)
	}
}
