package sched

import (
	"math/rand"
	"sync"
	"testing"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
)

// diffPopulation builds a mixed random-DAG population spanning the
// structural axes that matter to the batched path: binary and k-ary
// (renumbered by binarization), deep chains and wide shallow graphs.
func diffPopulation(n int) []*dag.Graph {
	shapes := []dag.RandomConfig{
		{Inputs: 3, Interior: 20, MaxArgs: 2, MulFrac: 0.3},
		{Inputs: 5, Interior: 35, MaxArgs: 4, MulFrac: 0.5},            // k-ary: binarized and renumbered
		{Inputs: 2, Interior: 40, MaxArgs: 2, MulFrac: 0.2, Window: 3}, // deep chain
		{Inputs: 8, Interior: 25, MaxArgs: 3, MulFrac: 0.4, Window: 50},
	}
	graphs := make([]*dag.Graph, n)
	for i := range graphs {
		cfg := shapes[i%len(shapes)]
		cfg.Seed = int64(1000 + i)
		graphs[i] = dag.RandomGraph(cfg)
	}
	return graphs
}

// directOutputs runs g through a one-item engine batch, bypassing the
// scheduler, and reports the sink values in g.Outputs() order
// (translating from the binarized graph via Remap), i.e. the same
// contract as a Scheduler Result.
func directOutputs(t *testing.T, e *engine.Engine, g *dag.Graph, in []float64) []float64 {
	t.Helper()
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sinks := c.Graph.Outputs()
	out, errs := make([]float64, len(sinks)), []error{nil}
	e.ExecuteBatchInto(c, [][]float64{in}, [][]float64{out}, nil, errs)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	at := make(map[dag.NodeID]float64, len(sinks))
	for i, sink := range sinks {
		at[sink] = out[i]
	}
	outs := g.Outputs()
	vals := make([]float64, len(outs))
	for j, s := range outs {
		vals[j] = at[c.Remap[s]]
	}
	return vals
}

// TestDifferentialBatchedVsDirect proves the tentpole's correctness
// claim: for a random DAG population, results served through the
// scheduler's chunked batch path are bit-exact with direct
// Engine.Compile + one-item ExecuteBatchInto calls — first serially per
// graph, then under concurrent mixed-graph load.
func TestDifferentialBatchedVsDirect(t *testing.T) {
	nGraphs := 16
	itersPerGraph := 4
	if testing.Short() {
		nGraphs, itersPerGraph = 6, 2
	}
	graphs := diffPopulation(nGraphs)
	eng := engine.New(engine.Options{})
	s := New(eng, Options{MaxBatch: 8})
	defer s.Close()

	// Precompute direct-path references per (graph, iteration).
	rng := rand.New(rand.NewSource(9))
	inputs := make([][][]float64, nGraphs)
	want := make([][][]float64, nGraphs)
	for gi, g := range graphs {
		inputs[gi] = make([][]float64, itersPerGraph)
		want[gi] = make([][]float64, itersPerGraph)
		for it := 0; it < itersPerGraph; it++ {
			in := make([]float64, len(g.Inputs()))
			for k := range in {
				in[k] = rng.NormFloat64()
			}
			inputs[gi][it] = in
			want[gi][it] = directOutputs(t, eng, g, in)
		}
	}

	// Phase 1: serial — every graph/input through the scheduler alone.
	for gi, g := range graphs {
		for it := 0; it < itersPerGraph; it++ {
			rs, errs := s.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{inputs[gi][it]})
			res, err := rs[0], errs[0]
			if err != nil {
				t.Fatal(err)
			}
			for j, w := range want[gi][it] {
				if res.Outputs[j] != w {
					t.Fatalf("serial: graph %d iter %d output %d = %x, direct %x (not bit-exact)",
						gi, it, j, res.Outputs[j], w)
				}
			}
		}
	}

	// Phase 2: concurrent mixed-graph load — one goroutine per graph
	// walking the population in a different order, so every graph is
	// executing on several goroutines at once.
	var wg sync.WaitGroup
	for w := 0; w < nGraphs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for step := 0; step < nGraphs*itersPerGraph; step++ {
				gi := (w + step) % nGraphs
				it := step % itersPerGraph
				rs, errs := s.SubmitMany(graphs[gi], testCfg, compiler.Options{}, [][]float64{inputs[gi][it]})
				res, err := rs[0], errs[0]
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				for j, wv := range want[gi][it] {
					if res.Outputs[j] != wv {
						t.Errorf("concurrent: worker %d graph %d iter %d output %d = %x, direct %x",
							w, gi, it, j, res.Outputs[j], wv)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Failed != 0 || st.Rejected != 0 {
		t.Errorf("failed/rejected = %d/%d, want 0/0", st.Failed, st.Rejected)
	}
}
