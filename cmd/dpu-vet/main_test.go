package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/verify"
)

// writeArtifacts populates dir with one clean artifact, returning its
// encoded bytes for corruption tests.
func writeArtifacts(t *testing.T, dir string) []byte {
	t.Helper()
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 4, Interior: 30, MaxArgs: 2, MulFrac: 0.3, Seed: 5})
	cfg := arch.Config{D: 2, B: 8, R: 16}
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := &artifact.Artifact{Fingerprint: g.Fingerprint(), Options: compiler.Options{}.Normalized(), Compiled: c}
	ab, err := artifact.EncodeBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "good"+artifact.Ext), ab, 0o644); err != nil {
		t.Fatal(err)
	}
	return ab
}

// leftoverDecision is a complete .dputune record (a per-fingerprint
// autotuning decision, a format this build no longer reads or writes)
// as older builds left it in a store directory.
const leftoverDecision = "7f44505554554e45020003f1f9b787000000000000004d5a28d14a3caa63cd9dbd" +
	"f15cace8e2bb9b2b38198409ab0450f4a4f61a706703408001008080100000000000" +
	"c072400000d804203000000000000000f03f076c6174656e63790340200180801000" +
	"00000000c072400000000000000040303000000a6470752d74756e652f3204677269" +
	"64000000000000000000000000000000000000000000"

// TestVetSkipsLeftoverDecisionFile: a store directory upgraded from a
// build that wrote .dputune decisions vets clean — the leftover file is
// not an artifact, so it is neither vetted nor reported.
func TestVetSkipsLeftoverDecisionFile(t *testing.T) {
	dir := t.TempDir()
	writeArtifacts(t, dir)
	b, err := hex.DecodeString(leftoverDecision)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "4d5a28d14a3caa63cd9dbdf15cace8e2bb9b2b38198409ab0450f4a4f61a7067.dputune"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with a leftover decision file; out=%s err=%s", code, out.String(), errb.String())
	}
	if got := out.String(); got != "vetted 1 file(s): 0 bad, 0 warning(s)\n" {
		t.Errorf("output %q, want only the one program vetted", got)
	}
}

func TestVetCleanDir(t *testing.T) {
	dir := t.TempDir()
	writeArtifacts(t, dir)
	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on a clean dir; out=%s err=%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "0 bad") {
		t.Errorf("summary missing: %s", out.String())
	}
}

func TestVetTruncatedArtifact(t *testing.T) {
	dir := t.TempDir()
	ab := writeArtifacts(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "trunc"+artifact.Ext), ab[:40], 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on a truncated artifact, want 1; out=%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 bad") {
		t.Errorf("summary missing the bad file: %s", out.String())
	}
}

// TestVetSemanticallyCorruptArtifact: a CRC-clean artifact whose program
// is illegal is reported with the verifier's finding class, not a bare
// "corrupt".
func TestVetSemanticallyCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	ab := writeArtifacts(t, dir)
	a, err := artifact.DecodeBytes(ab)
	if err != nil {
		t.Fatal(err)
	}
	instrs := a.Compiled.Prog.Instrs
	i := -1
	for j, in := range instrs {
		if in.Kind == arch.KindExec {
			i = j
			break
		}
	}
	if i <= 0 {
		t.Fatal("no exec to displace")
	}
	instrs[0], instrs[i] = instrs[i], instrs[0]
	bad, err := artifact.EncodeBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "illegal"+artifact.Ext)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on an illegal artifact, want 1", code)
	}
	if !strings.Contains(out.String(), "uninit-read") {
		t.Errorf("output does not name the finding class: %s", out.String())
	}
}

// TestVetStatsMismatch: an artifact with a legal program but a halved
// stored cycle count is reported as stats-mismatch, and the class
// round-trips through -json.
func TestVetStatsMismatch(t *testing.T) {
	dir := t.TempDir()
	a, err := artifact.DecodeBytes(writeArtifacts(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	a.Compiled.Stats.Cycles /= 2
	bad, err := artifact.EncodeBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lying"+artifact.Ext)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-json", path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on a stats-mismatched artifact, want 1", code)
	}
	var r report
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("not JSON: %v: %s", err, out.String())
	}
	if len(r.Findings) != 1 || r.Findings[0].Class != verify.ClassStatsMismatch {
		t.Errorf("findings %v, want one stats-mismatch", r.Findings)
	}
}

func TestVetJSON(t *testing.T) {
	dir := t.TempDir()
	ab := writeArtifacts(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "trunc"+artifact.Ext), ab[:40], 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-json", dir}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	lines := 0
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d not JSON: %v: %s", lines, err, sc.Text())
		}
		lines++
	}
	if lines != 2 { // good.dpuprog, trunc.dpuprog
		t.Errorf("got %d JSON reports, want 2", lines)
	}
}

func TestVetUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d with no args, want 2", code)
	}
}
