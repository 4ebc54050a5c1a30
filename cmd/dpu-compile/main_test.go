package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpuv2/internal/artifact"
	"dpuv2/internal/dag"
	"dpuv2/internal/sim"
)

const testDAG = "# tiny request graph\ninput\ninput\nadd 0 1\nconst 3\nmul 2 3\n"

func writeDAG(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "g.dag")
	if err := os.WriteFile(p, []byte(testDAG), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEmitArtifactRoundTrip: -o *.dpuprog writes an artifact that
// decodes, matches the source graph's fingerprint, and executes
// bit-exactly against the reference evaluator — the emit→load round
// trip through a temp dir.
func TestEmitArtifactRoundTrip(t *testing.T) {
	dagPath := writeDAG(t)
	out := filepath.Join(t.TempDir(), "g.dpuprog")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-in", dagPath, "-d", "2", "-b", "8", "-r", "16", "-o", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Errorf("stdout does not report the emitted file:\n%s", stdout.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	a, err := artifact.DecodeBytes(b)
	if err != nil {
		t.Fatalf("emitted artifact does not decode: %v", err)
	}
	g, err := dag.Read(strings.NewReader(testDAG), "g")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != g.Fingerprint() {
		t.Error("artifact fingerprint differs from the source graph's")
	}
	in := []float64{2, 5}
	if res, err := sim.Run(a.Compiled, in); err != nil {
		t.Errorf("emitted program does not run: %v", err)
	} else if err := sim.CheckOutputs(a.Compiled, in, res, 0); err != nil {
		t.Errorf("emitted program fails verification: %v", err)
	} else {
		for _, v := range res.Outputs {
			if v != 21 {
				t.Errorf("(2+5)*3 = %v, want 21", v)
			}
		}
	}
}

// TestEmitRawBinary: any other -o extension keeps the legacy behavior —
// the raw packed instruction stream, not an artifact.
func TestEmitRawBinary(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.bin")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", writeDAG(t), "-d", "2", "-b", "8", "-r", "16", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.DecodeBytes(b); err == nil {
		t.Error("raw -o output unexpectedly decodes as an artifact")
	}
	if len(b) == 0 {
		t.Error("raw binary is empty")
	}
}

// TestNamedWorkload compiles a Table I benchmark by name at a small
// scale, no output file.
func TestNamedWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "tretail", "-scale", "0.01", "-d", "2", "-b", "8", "-r", "16"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"workload:", "instructions:", "fingerprint:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestBadInputsExitNonZero: every operator mistake is a non-zero exit
// with a message on stderr, not a panic or a silent success.
func TestBadInputsExitNonZero(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.dag")
	malformed := filepath.Join(t.TempDir(), "bad.dag")
	if err := os.WriteFile(malformed, []byte("frobnicate 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"unparseable flag value", []string{"-scale", "tiny"}},
		{"unknown workload", []string{"-workload", "not-in-table-1"}},
		{"missing input file", []string{"-in", missing}},
		{"malformed DAG file", []string{"-in", malformed}},
		{"invalid config", []string{"-workload", "tretail", "-scale", "0.01", "-d", "9"}},
		{"unwritable output", []string{"-workload", "tretail", "-scale", "0.01", "-d", "2", "-b", "8", "-r", "16", "-o", filepath.Join(t.TempDir(), "no", "such", "dir", "x.dpuprog")}},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit 0, want non-zero", tc.name)
		} else if stderr.Len() == 0 {
			t.Errorf("%s: nothing on stderr", tc.name)
		}
	}
}

// TestHelpExitsZero: -h is a successful usage request (scripts probe
// tools with it), not a flag-parse failure.
func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-workload") {
		t.Error("-h did not print usage")
	}
}
