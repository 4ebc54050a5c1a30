package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// conformanceConfigs spans the template's free axes: depth D, bank count
// B, registers per bank R (including spill-pressure points), and the
// three compilable output topologies of fig. 6. The crossbar, the most
// permissive write path, takes most points; the paper's per-layer
// datapath (the zero Output) repeats two of them.
func conformanceConfigs(short bool) []arch.Config {
	cfgs := []arch.Config{
		{D: 1, B: 2, R: 8, Output: arch.OutCrossbar},
		{D: 2, B: 8, R: 16, Output: arch.OutCrossbar},
		{D: 3, B: 16, R: 32, Output: arch.OutCrossbar},
		{D: 2, B: 8, R: 16},
	}
	if !short {
		cfgs = append(cfgs,
			arch.Config{D: 1, B: 4, R: 4, Output: arch.OutCrossbar}, // tight R forces spills
			arch.Config{D: 2, B: 16, R: 8, Output: arch.OutCrossbar},
			arch.Config{D: 2, B: 8, R: 16, Output: arch.OutPerPE},
			arch.Config{D: 3, B: 64, R: 32, Output: arch.OutCrossbar},
			arch.Config{D: 3, B: 64, R: 32}, // the paper's min-EDP point
		)
	}
	return cfgs
}

// conformanceGraphs varies size, arity (k-ary forces binarization),
// depth-vs-width (Window) and op mix.
func conformanceGraphs(short bool) []*dag.Graph {
	specs := []dag.RandomConfig{
		{Inputs: 3, Interior: 25, MaxArgs: 2, MulFrac: 0.5, Seed: 1},
		{Inputs: 8, Interior: 60, MaxArgs: 4, MulFrac: 0.3, Seed: 2},
		{Inputs: 5, Interior: 80, MaxArgs: 2, MulFrac: 0.4, Window: 8, Seed: 3}, // deep chains
	}
	if !short {
		specs = append(specs,
			dag.RandomConfig{Inputs: 12, Interior: 120, MaxArgs: 3, MulFrac: 0.25, Window: 64, Seed: 4},
			dag.RandomConfig{Inputs: 2, Interior: 40, MaxArgs: 5, MulFrac: 0.6, Seed: 5},
		)
	}
	graphs := make([]*dag.Graph, len(specs))
	for i, s := range specs {
		graphs[i] = dag.RandomGraph(s)
	}
	return graphs
}

// TestConformanceMatrix differentially tests the simulator against the
// dag reference evaluator over the seeded (graph × config) matrix: for
// every pair, the compiled program's sink values must match the
// binarized graph's reference evaluation bit-exactly (the simulator
// performs the same float64 operations in the same association order).
func TestConformanceMatrix(t *testing.T) {
	for gi, g := range conformanceGraphs(testing.Short()) {
		for _, cfg := range conformanceConfigs(testing.Short()) {
			t.Run(fmt.Sprintf("graph%d/%s", gi, cfg), func(t *testing.T) {
				c, err := compiler.Compile(g, cfg, compiler.Options{})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				rng := rand.New(rand.NewSource(int64(gi) + 42))
				inputs := make([]float64, len(c.Graph.Inputs()))
				for i := range inputs {
					inputs[i] = rng.Float64()*4 - 2
				}
				res, err := Run(c, inputs)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				want, err := dag.Eval(c.Graph, inputs)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				outs := c.Graph.Outputs()
				if len(res.Outputs) != len(outs) {
					t.Fatalf("got %d outputs, graph has %d sinks", len(res.Outputs), len(outs))
				}
				for _, sink := range outs {
					if got := res.Outputs[sink]; got != want[sink] {
						t.Errorf("sink %d = %v, reference %v (must be bit-exact)", sink, got, want[sink])
					}
				}
			})
		}
	}
}
