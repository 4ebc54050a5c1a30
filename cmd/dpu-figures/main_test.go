package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

// TestRecordWritesLedger: -record writes the fidelity ledger, a JSON
// object with a row per paper claim and per Table I graph, and prints
// no table.
func TestRecordWritesLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "FIDELITY.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-record", path, "-scale", "0.02", "-large-scale", "0.004"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-record printed tables:\n%s", stdout.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Scale  float64
		Claims []struct {
			Name  string
			Holds bool
		}
		Graphs []struct {
			Name   string
			Cycles int
		}
	}
	if err := json.Unmarshal(b, &ledger); err != nil {
		t.Fatalf("ledger is not JSON: %v\n%s", err, b)
	}
	if ledger.Scale != 0.02 || len(ledger.Claims) == 0 || len(ledger.Graphs) != 12 {
		t.Errorf("ledger at scale %v with %d claims and %d graphs, want 0.02, some and 12", ledger.Scale, len(ledger.Claims), len(ledger.Graphs))
	}
	for _, g := range ledger.Graphs {
		if g.Cycles <= 0 {
			t.Errorf("%s: %d cycles", g.Name, g.Cycles)
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
	for _, flag := range []string{"-exp", "-scale", "-large-scale", "-workers", "-record"} {
		if !strings.Contains(stderr.String(), flag) {
			t.Errorf("usage text does not document %s", flag)
		}
	}
}
