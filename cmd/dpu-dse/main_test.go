package main

import (
	"bytes"
	"strings"
	"testing"
)

// smallArgs keeps CLI sweeps fast: tiny workloads, every grid point.
var smallArgs = []string{"-scale", "0.01"}

func TestDSEGridSweepReportsWinners(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(smallArgs, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"sweeping 48 configurations", "min latency:", "min energy:", "min EDP:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDSEBadInputs(t *testing.T) {
	for name, args := range map[string][]string{
		"undefined flag":    {"-search", "grid"},
		"unparseable flags": {"-scale", "x"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
}

func TestDSEHelpIsNotAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	if !strings.Contains(stderr.String(), "-timeout") {
		t.Error("usage text does not document -timeout")
	}
}
