package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := cmdServe(nil); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Errorf("missing -model: err = %v", err)
	}
	if err := cmdServe([]string{"-model", "/nonexistent/path/model.i2v", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("nonexistent model path accepted")
	}
	if err := cmdServe([]string{"-bogus-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := cmdServe([]string{"-model", "m.i2v", "-log-format", "xml"}); err == nil {
		t.Error("bad -log-format accepted")
	}
}

// TestVersionFlag pins that -version exits before requiring -model.
func TestVersionFlag(t *testing.T) {
	if err := cmdServe([]string{"-version"}); err != nil {
		t.Errorf("-version: %v", err)
	}
}
