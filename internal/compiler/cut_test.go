package compiler_test

import (
	"bytes"
	"fmt"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/dse"
	"dpuv2/internal/pc"
	"dpuv2/internal/sptrsv"
	"dpuv2/internal/suite"
)

func build(t *testing.T, name string, scale float64) *dag.Graph {
	t.Helper()
	g, err := suite.Build(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCutSelectionNeverWorse checks step 1's choice between the greedy and
// the band cut against the greedy cut it replaced: on the Table I graphs,
// four of them across the design-space grid, and a population of 480-node
// circuits, the chosen cut never compiles to more cycles than the greedy
// cut alone, and never fails where the greedy cut compiles. On a wide DAG
// (tretail@0.25, the serve_batch graph) it must find the band cut's gain.
func TestCutSelectionNeverWorse(t *testing.T) {
	type tcase struct {
		name string
		g    *dag.Graph
		cfg  arch.Config
	}
	var cases []tcase
	var tableI []string
	for _, s := range pc.Suite() {
		tableI = append(tableI, s.Name)
	}
	for _, s := range sptrsv.Suite() {
		tableI = append(tableI, s.Name)
	}
	for _, scale := range []float64{0.05, 0.1} {
		for _, name := range tableI {
			cases = append(cases, tcase{fmt.Sprintf("%s@%g", name, scale), build(t, name, scale), arch.MinEDP()})
		}
	}
	for _, name := range []string{"tretail", "msnbc", "dw2048", "bp_200"} {
		g := build(t, name, 0.02)
		for _, cfg := range dse.Grid() {
			cases = append(cases, tcase{fmt.Sprintf("%s@0.02 %s", name, cfg), g, cfg})
		}
	}
	for seed := int64(0); seed < 64; seed++ {
		g := pc.Generate(pc.Config{Vars: 8, TargetNodes: 480, TargetDepth: 12,
			SumFanin: 3, Weighted: true, SkipProb: 0.15, Seed: 1000 + seed})
		cases = append(cases, tcase{fmt.Sprintf("circuit-480/%d", seed), g, arch.MinEDP()})
	}

	gained := 0
	for _, tc := range cases {
		greedy, gerr := compiler.CompileCut(tc.g, tc.cfg, compiler.Options{}, compiler.CutGreedy)
		chosen, err := compiler.Compile(tc.g, tc.cfg, compiler.Options{})
		switch {
		case err != nil && gerr == nil:
			t.Errorf("%s: the chosen cut fails (%v), the greedy cut compiles", tc.name, err)
			continue
		case err != nil || gerr != nil:
			continue // infeasible grid point, or only the greedy cut is
		}
		if chosen.Stats.Cycles > greedy.Stats.Cycles {
			t.Errorf("%s: chosen cut takes %d cycles, the greedy cut %d", tc.name, chosen.Stats.Cycles, greedy.Stats.Cycles)
		}
		if chosen.Stats.Cycles < greedy.Stats.Cycles {
			gained++
		}
	}
	t.Logf("%d compiles, %d faster than the greedy cut", len(cases), gained)

	g := build(t, "tretail", 0.25)
	chosen, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	band, err := compiler.CompileCut(g, arch.MinEDP(), compiler.Options{}, compiler.CutBand)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chosen.Prog.Pack(), band.Prog.Pack()) {
		t.Errorf("tretail@0.25: the band cut was not chosen (%d cycles; band %d)", chosen.Stats.Cycles, band.Stats.Cycles)
	}
	if chosen.Stats.Cycles > 190 {
		t.Errorf("tretail@0.25: %d cycles, want ≤ 190", chosen.Stats.Cycles)
	}
}
