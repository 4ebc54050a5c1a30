package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// writeArtifact compiles a tiny graph and writes it as a .dpuprog into
// a temp dir, returning the path — the "load" half of the emit→load
// round trip exercised from the simulator's side.
func writeArtifact(t *testing.T) string {
	t.Helper()
	g := dag.New("cmdtest")
	a, b := g.AddInput(), g.AddInput()
	g.AddOp(dag.OpMul, g.AddOp(dag.OpAdd, a, b), g.AddConst(3))
	c, err := compiler.Compile(g, arch.Config{D: 2, B: 8, R: 16}, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	art := &artifact.Artifact{Fingerprint: g.Fingerprint(), Options: compiler.Options{}, Compiled: c}
	data, err := artifact.EncodeBytes(art)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "cmdtest.dpuprog")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSimulateNamedWorkload: the compile-and-simulate path verifies
// against the reference evaluator and reports it.
func TestSimulateNamedWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "bp_200", "-scale", "0.01", "-d", "2", "-b", "8", "-r", "16"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"verified:", "cycles:", "throughput:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestSimulateArtifact: -artifact executes a .dpuprog directly — no
// compilation — and still verifies bit-exactly against the reference
// evaluator (the artifact carries the graph for exactly this purpose).
func TestSimulateArtifact(t *testing.T) {
	p := writeArtifact(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-artifact", p}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "artifact:") || !strings.Contains(out, fmt.Sprintf("format v%d", artifact.Version)) {
		t.Errorf("report does not identify the artifact:\n%s", out)
	}
	if !strings.Contains(out, "verified:") {
		t.Errorf("artifact execution was not verified:\n%s", out)
	}
	if !strings.Contains(out, "cmdtest") {
		t.Errorf("report lost the workload name carried by the artifact:\n%s", out)
	}
}

// TestBadInputsExitNonZero: missing, truncated and corrupted artifacts
// — and plain flag mistakes — all exit non-zero with a diagnostic.
func TestBadInputsExitNonZero(t *testing.T) {
	valid, err := os.ReadFile(writeArtifact(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	truncated := filepath.Join(dir, "trunc.dpuprog")
	os.WriteFile(truncated, valid[:len(valid)/2], 0o644)
	flipped := filepath.Join(dir, "flip.dpuprog")
	bad := append([]byte(nil), valid...)
	bad[len(bad)-3] ^= 0x08
	os.WriteFile(flipped, bad, 0o644)
	notArtifact := filepath.Join(dir, "plain.dpuprog")
	os.WriteFile(notArtifact, []byte("this is not an artifact"), 0o644)

	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"unknown workload", []string{"-workload", "nope"}},
		{"invalid config", []string{"-workload", "bp_200", "-scale", "0.01", "-b", "3"}},
		{"missing artifact", []string{"-artifact", filepath.Join(dir, "ghost.dpuprog")}},
		{"truncated artifact", []string{"-artifact", truncated}},
		{"bit-flipped artifact", []string{"-artifact", flipped}},
		{"not an artifact", []string{"-artifact", notArtifact}},
		// The artifact fixes workload and configuration; conflicting
		// explicit flags must error, not be silently ignored.
		{"artifact + workload", []string{"-artifact", truncated, "-workload", "mnist"}},
		{"artifact + config", []string{"-artifact", truncated, "-d", "5"}},
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

// TestHelpExitsZero: -h is a successful usage request, not a mistake.
func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-artifact") {
		t.Error("-h did not print usage")
	}
}
