package verify_test

import (
	"os"
	"path/filepath"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/verify"
)

// TestConformanceMatrixVerifiesClean mirrors sim.TestOptionMatrix: every
// program the compiler emits across the random DAG × config × options
// matrix must pass static verification with zero error findings. This is
// the differential invariant that justifies using the verifier as a hard
// gate on the serving path — if the compiler can emit it, the verifier
// accepts it.
func TestConformanceMatrixVerifiesClean(t *testing.T) {
	shapes := []dag.RandomConfig{
		{Inputs: 6, Interior: 120, MaxArgs: 2, MulFrac: 0.3, Window: 8, Seed: 1},   // deep
		{Inputs: 60, Interior: 240, MaxArgs: 4, MulFrac: 0.6, Seed: 2},             // wide
		{Inputs: 16, Interior: 300, MaxArgs: 3, MulFrac: 0.5, Window: 60, Seed: 3}, // mixed
	}
	cfgs := []arch.Config{
		{D: 1, B: 16, R: 16, Output: arch.OutCrossbar},
		{D: 2, B: 8, R: 24, Output: arch.OutPerPE},
		{D: 3, B: 32, R: 16},
	}
	opts := []compiler.Options{
		{},
		{PartitionSize: 16},
		{RandomBanks: true, PartitionSize: 16},
		{RandomBanks: true, PartitionSize: 64},
		{RandomBanks: true},
		{PartitionSize: 64},
	}
	warnings := 0
	for si, shape := range shapes {
		g := dag.RandomGraph(shape)
		for ci, cfg := range cfgs {
			for oi, o := range opts {
				c, err := compiler.Compile(g, cfg, o)
				if err != nil {
					t.Fatalf("shape %d cfg %d opts %d: compile: %v", si, ci, oi, err)
				}
				fs := verify.Compiled(c)
				if verify.HasErrors(fs) {
					for _, f := range fs {
						t.Logf("  %s", f)
					}
					t.Fatalf("shape %d cfg %d opts %d: %s", si, ci, oi, verify.Summary(fs))
				}
				warnings += len(fs)
			}
		}
	}
	if warnings > 0 {
		t.Logf("matrix verified clean with %d warning(s)", warnings)
	}
}

// TestGoldenFixturesVerifyClean decodes the golden .dpuprog fixtures —
// the fuzz seed corpus — and requires each to verify clean: the fuzz
// target's "accepts 100% of genuine compiler outputs" half, checked
// deterministically.
func TestGoldenFixturesVerifyClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "artifact", "testdata", "*.dpuprog"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		a, err := artifact.DecodeBytes(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", filepath.Base(p), err)
		}
		if fs := verify.Compiled(a.Compiled); verify.HasErrors(fs) {
			t.Errorf("%s: %s", filepath.Base(p), verify.Summary(fs))
		}
	}
}
