package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/suite"
)

// checkLane requires out, one item's evaluator output, to equal a
// one-vector dag.Eval of the compiled graph on in, sink by sink, by
// sameBits.
func checkLane(t *testing.T, c *compiler.Compiled, in, out []float64, label string) {
	t.Helper()
	want, err := dag.Eval(c.Graph, in)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	for k, sink := range c.Graph.Outputs() {
		if !sameBits(out[k], want[sink]) {
			t.Errorf("%s sink %d: evaluator %v (%#x), reference %v (%#x)",
				label, sink, out[k], math.Float64bits(out[k]), want[sink], math.Float64bits(want[sink]))
		}
	}
}

// laneInputs draws item i's input vector: uniform values with signed
// zeros, infinities, NaN and a subnormal spliced in at item-dependent
// positions, so neighbouring lanes carry different value classes.
func laneInputs(g *dag.Graph, i int) []float64 {
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}
	rng := rand.New(rand.NewSource(int64(i) + 1000))
	in := make([]float64, len(g.Inputs()))
	for j := range in {
		if (i+j)%5 == 0 {
			in[j] = special[(i+j)%len(special)]
		} else {
			in[j] = rng.Float64()*4 - 2
		}
	}
	return in
}

// TestFuncEvaluatorLanes pins the node-major walk's lane discipline:
// across batch sizes around the 32-lane pass width, on k-ary random
// graphs compiled on two configurations, every item's sinks equal a
// one-vector dag.Eval bit for bit, and an item with the wrong arity at
// lane 0, mid-pass or last fails in its own slot while its neighbours
// stay exact. One evaluator serves every batch, as the engine reuses a
// leased one.
func TestFuncEvaluatorLanes(t *testing.T) {
	graphs := []*dag.Graph{
		dag.RandomGraph(dag.RandomConfig{Inputs: 7, Interior: 90, MaxArgs: 4, MulFrac: 0.4, Seed: 21}),
		dag.RandomGraph(dag.RandomConfig{Inputs: 4, Interior: 60, MaxArgs: 5, MulFrac: 0.3, Window: 6, Seed: 22}),
	}
	cfgs := []arch.Config{{D: 2, B: 8, R: 16}, {D: 3, B: 64, R: 32}}
	f := new(FuncEvaluator)
	for gi, g := range graphs {
		for _, cfg := range cfgs {
			c, err := compiler.Compile(g, cfg, compiler.Options{})
			if err != nil {
				t.Fatalf("graph%d/%s: compile: %v", gi, cfg, err)
			}
			sinks := len(c.Graph.Outputs())
			for _, n := range []int{1, 2, 31, 32, 33, 65} {
				bad := map[int]bool{}
				for _, i := range []int{0, min(15, n-1), n - 1} {
					bad[i] = true
				}
				for _, withBad := range []bool{false, true} {
					t.Run(fmt.Sprintf("graph%d/%s/n=%d/bad=%v", gi, cfg, n, withBad), func(t *testing.T) {
						batch, outs, errs := make([][]float64, n), make([][]float64, n), make([]error, n)
						for i := range batch {
							batch[i] = laneInputs(c.Graph, i)
							if withBad && bad[i] {
								batch[i] = batch[i][1:]
							}
							outs[i] = make([]float64, sinks)
						}
						f.ExecuteBatchInto(c, batch, outs, errs)
						for i := range batch {
							label := fmt.Sprintf("item %d", i)
							if withBad && bad[i] {
								if errs[i] == nil || !strings.Contains(errs[i].Error(), "inputs provided") {
									t.Errorf("%s: wrong arity gave %v, want an arity error", label, errs[i])
								}
								continue
							}
							if errs[i] != nil {
								t.Fatalf("%s: %v", label, errs[i])
							}
							checkLane(t, c, batch[i], outs[i], label)
						}
					})
				}
			}
		}
	}
}

// TestFuncEvaluatorLaneBudget: a graph above the lane budget runs with
// fewer lanes — one lane past laneBudget nodes — its scratch stays
// within max(8·nodes bytes, 2 MiB), and its outputs stay exact. The
// evaluator reads only the graph and the input count, so the graphs are
// binarized but not compiled.
func TestFuncEvaluatorLaneBudget(t *testing.T) {
	for _, tc := range []struct {
		interior, items, lanes int
	}{
		{interior: 20000, items: 40, lanes: 11},
		{interior: laneBudget + 100, items: 3, lanes: 1},
	} {
		g, _ := dag.Binarize(dag.RandomGraph(dag.RandomConfig{Inputs: 16, Interior: tc.interior, MaxArgs: 2, MulFrac: 0.2, Window: 32, Seed: 5}))
		n := g.NumNodes()
		c := &compiler.Compiled{Graph: g, InputWord: make([]int, len(g.Inputs()))}
		batch, outs, errs := make([][]float64, tc.items), make([][]float64, tc.items), make([]error, tc.items)
		for i := range batch {
			batch[i] = laneInputs(g, i)
			outs[i] = make([]float64, len(g.Outputs()))
		}
		f := new(FuncEvaluator)
		f.ExecuteBatchInto(c, batch, outs, errs)
		if got := cap(f.vals); got != n*tc.lanes {
			t.Errorf("%d nodes: scratch holds %d values, want %d (%d lanes)", n, got, n*tc.lanes, tc.lanes)
		}
		if bytes := 8 * cap(f.vals); bytes > max(8*n, 2<<20) {
			t.Errorf("%d nodes: scratch is %d bytes, bound max(8·nodes, 2 MiB) = %d", n, bytes, max(8*n, 2<<20))
		}
		for i := range batch {
			if errs[i] != nil {
				t.Fatalf("%d nodes item %d: %v", n, i, errs[i])
			}
			checkLane(t, c, batch[i], outs[i], fmt.Sprintf("%d nodes item %d", n, i))
		}
	}
}

// BenchmarkFuncEvaluatorBatch measures the node-major walk on
// tretail@0.25 (2,769 binarized nodes) at several batch widths, in
// nanoseconds per node per vector.
func BenchmarkFuncEvaluatorBatch(b *testing.B) {
	g, err := suite.Build("tretail", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			batch, outs, errs := make([][]float64, n), make([][]float64, n), make([]error, n)
			for i := range batch {
				batch[i] = randInputs(c.Graph, int64(i)+1)
				outs[i] = make([]float64, len(c.Graph.Outputs()))
			}
			f := new(FuncEvaluator)
			f.ExecuteBatchInto(c, batch, outs, errs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.ExecuteBatchInto(c, batch, outs, errs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*c.Graph.NumNodes()), "ns/node-vec")
		})
	}
}
