package sim

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// The option matrix: compiler options × topologies × shapes.
var (
	optionMatrixShapes = []dag.RandomConfig{
		{Inputs: 6, Interior: 120, MaxArgs: 2, MulFrac: 0.3, Window: 8, Seed: 1},   // deep
		{Inputs: 60, Interior: 240, MaxArgs: 4, MulFrac: 0.6, Seed: 2},             // wide
		{Inputs: 16, Interior: 300, MaxArgs: 3, MulFrac: 0.5, Window: 60, Seed: 3}, // mixed
	}
	optionMatrixConfigs = []arch.Config{
		{D: 1, B: 16, R: 16, Output: arch.OutCrossbar},
		{D: 2, B: 8, R: 24, Output: arch.OutPerPE},
		{D: 3, B: 32, R: 16},
	}
	optionMatrixOptions = []compiler.Options{
		{},
		{PartitionSize: 16},
		{RandomBanks: true, PartitionSize: 16},
		{RandomBanks: true, PartitionSize: 64},
		{RandomBanks: true},
		{PartitionSize: 64},
	}
)

// TestOptionMatrix sweeps the option matrix and verifies functional
// correctness of every combination end to end — the widest co-design
// safety net in the suite.
func TestOptionMatrix(t *testing.T) {
	for si, shape := range optionMatrixShapes {
		g := dag.RandomGraph(shape)
		for ci, cfg := range optionMatrixConfigs {
			for oi, o := range optionMatrixOptions {
				c, err := compiler.Compile(g, cfg, o)
				if err != nil {
					t.Fatalf("shape %d cfg %d opts %d: compile: %v", si, ci, oi, err)
				}
				if _, err := runChecked(c, randInputs(c.Graph, int64(si*100+ci*10+oi))); err != nil {
					t.Fatalf("shape %d cfg %d opts %d: %v", si, ci, oi, err)
				}
			}
		}
	}
}
