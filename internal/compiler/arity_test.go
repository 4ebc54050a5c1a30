package compiler_test

import (
	"math"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/sim"
	"dpuv2/internal/verify"
)

// TestUnaryGraphsCompile: a graph whose only non-binary nodes are unary
// compiles like any other, because every graph is binarized. The
// compiled graph is binary, is not the caller's, keeps the caller's
// sinks in order, and the cycle-accurate machine answers dag.Eval's
// exact bits for every sink, −0 through a unary add included.
func TestUnaryGraphsCompile(t *testing.T) {
	nz := math.Copysign(0, -1)
	for _, tc := range []struct {
		name, src string
		inputs    [][]float64
	}{
		{"unary add", "input\nadd 0\n", [][]float64{{nz}, {0}, {1.5}, {math.Inf(-1)}}},
		{"unary mul after add", "input\ninput\nadd 0 1\nmul 2\n", [][]float64{{nz, nz}, {2, -3}}},
		{"unary add after 3-ary add", "input\ninput\ninput\nadd 0 1 2\nadd 3\n", [][]float64{{nz, nz, nz}, {1, 2, 4}}},
	} {
		g, err := dag.Read(strings.NewReader(tc.src), tc.name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !c.Graph.IsBinary() || c.Graph == g {
			t.Errorf("%s: compiled graph is not a binarized copy", tc.name)
		}
		if fs := verify.Compiled(c); verify.HasErrors(fs) {
			t.Errorf("%s: verifier findings %v", tc.name, fs)
		}
		for j, sink := range g.Outputs() {
			if c.Remap[sink] != c.Graph.Outputs()[j] {
				t.Errorf("%s: sink %d maps to %d, compiled sink %d is %d", tc.name, sink, c.Remap[sink], j, c.Graph.Outputs()[j])
			}
		}
		for _, in := range tc.inputs {
			want, err := dag.Eval(g, in)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(c, in)
			if err != nil {
				t.Fatalf("%s on %v: %v", tc.name, in, err)
			}
			for _, sink := range g.Outputs() {
				if got := res.Outputs[c.Remap[sink]]; math.Float64bits(got) != math.Float64bits(want[sink]) {
					t.Errorf("%s on %v: sink %d = %v, dag.Eval %v", tc.name, in, sink, got, want[sink])
				}
			}
		}
	}
}
