package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFig11ReportsOptima sweeps the full grid over tiny workloads and
// checks the report names every configuration and the three optima.
func TestFig11ReportsOptima(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig11", "-scale", "0.01"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"48 configurations", "D=1,B=8,R=16,per-layer", "D=3,B=64,R=128,per-layer",
		"min latency", "min energy", "min EDP"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBadInputsExitNonZero(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		code int
	}{
		"undefined flag":     {[]string{"-timeout", "1m"}, 2},
		"unparseable flags":  {[]string{"-scale", "x"}, 2},
		"unknown experiment": {[]string{"-exp", "fig99", "-scale", "0.01"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d", name, code, tc.code)
		}
		if tc.code == 1 && !strings.Contains(stderr.String(), "fig11") {
			t.Errorf("%s: stderr does not list the experiments: %s", name, stderr.String())
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	for _, flag := range []string{"-exp", "-scale", "-large-scale", "-workers"} {
		if !strings.Contains(stderr.String(), flag) {
			t.Errorf("usage text does not document %s", flag)
		}
	}
}
