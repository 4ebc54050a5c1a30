package engine

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/sim"
)

// TestConcurrentSingleFlightAndIsolation is the engine's load test, in
// the spirit of a k6-style client hammering a service: N goroutines
// repeatedly submit M distinct graphs against one engine and verify
// every response. Run under -race (CI does) it checks three contracts at
// once:
//
//   - single-flight: exactly one compilation per (graph, config) even
//     though all goroutines request every graph concurrently;
//   - no cross-request bleed: each goroutine uses its own input scale,
//     and every output must match the reference for those inputs even
//     though evaluators are leased and reused between requests;
//   - the LRU and stats stay coherent under contention.
func TestConcurrentSingleFlightAndIsolation(t *testing.T) {
	const (
		workers = 8
		iters   = 20
		nGraphs = 6
	)
	graphs := make([]*dag.Graph, nGraphs)
	for i := range graphs {
		graphs[i] = testGraph(int64(100 + i))
	}
	// Cache comfortably holds every graph, so each compiles exactly once.
	e := New(Options{CacheSize: nGraphs})

	// Reference outputs are computed against the binarized graph each
	// compiled program carries, per (graph, scale) pair.
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scale := float64(w + 1)
			out := make([]float64, 0, 8)
			for it := 0; it < iters; it++ {
				for gi, g := range graphs {
					c, err := e.Compile(g, testCfg, compiler.Options{})
					if err != nil {
						errc <- err
						return
					}
					in := testInputs(g, scale)
					outs := c.Graph.Outputs()
					out = out[:0]
					for range outs {
						out = append(out, 0)
					}
					errs := []error{nil}
					e.ExecuteBatchInto(c, [][]float64{in}, [][]float64{out}, nil, errs)
					if errs[0] != nil {
						errc <- errs[0]
						return
					}
					want, err := dag.Eval(c.Graph, in)
					if err != nil {
						errc <- err
						return
					}
					for i, sink := range outs {
						if out[i] != want[sink] {
							t.Errorf("worker %d graph %d iter %d: sink %d = %v, want %v (cross-request bleed?)",
								w, gi, it, sink, out[i], want[sink])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Misses != nGraphs {
		t.Errorf("misses = %d, want exactly %d (one compile per graph)", st.Misses, nGraphs)
	}
	wantCalls := int64(workers * iters * nGraphs)
	if st.Hits+st.Misses != wantCalls {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, wantCalls)
	}
	if st.Executions != wantCalls {
		t.Errorf("executions = %d, want %d", st.Executions, wantCalls)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after quiescence, want 0", st.InFlight)
	}
}

// TestConcurrentChurnAgainstSmallLRU drives more distinct graphs than
// the cache holds from many goroutines, each resolving as the server
// does — Program by key, with the graph built only when it asks:
// recompiles are expected (misses > graphs), but every answer must
// carry the graph's sinks, every response must still verify, and the
// cache must never exceed its bound by more than the in-flight
// compilations.
func TestConcurrentChurnAgainstSmallLRU(t *testing.T) {
	const (
		workers = 6
		iters   = 8
		nGraphs = 5
		cache   = 2
	)
	graphs := make([]*dag.Graph, nGraphs)
	for i := range graphs {
		graphs[i] = testGraph(int64(200 + i))
	}
	e := New(Options{CacheSize: cache})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scale := 0.5 + float64(w)
			for it := 0; it < iters; it++ {
				// Walk the graphs in a worker-dependent order to maximize
				// cache churn.
				for k := 0; k < nGraphs; k++ {
					g := graphs[(k*(w+1)+it)%nGraphs]
					in := testInputs(g, scale)
					c, sinks, err := e.Program(g.Fingerprint(), func() (*dag.Graph, error) { return g, nil }, testCfg, compiler.Options{}, nil)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if !slices.Equal(sinks, g.Outputs()) || !servesGraph(g, c) {
						t.Errorf("worker %d: Program answered sinks %v for a graph with %v", w, sinks, g.Outputs())
						return
					}
					res, err := executeOne(e, c, in)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					want, _ := dag.Eval(c.Graph, in)
					for sink, got := range res.Outputs {
						if got != want[sink] {
							t.Errorf("worker %d: sink %d = %v, want %v", w, sink, got, want[sink])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := e.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions against a cache smaller than the working set")
	}
	if st.Cached > cache {
		t.Errorf("cached = %d exceeds the bound %d at quiescence", st.Cached, cache)
	}
}

// TestStressSharedFreeListAcrossConfigs leases the engine's one free
// list from many goroutines across programs of very different sizes and
// different configurations, so an evaluator whose scratch was grown (and
// filled) by a big graph is handed to a small one and back. Every item
// is checked against its own reference vector, and the cycle count
// against the cycle-accurate machine's. Run under -race in CI.
func TestStressSharedFreeListAcrossConfigs(t *testing.T) {
	e := withWorkers(4)
	type prog struct {
		c      *compiler.Compiled
		cycles int // what the machine counts
	}
	var progs []prog
	for i, spec := range []struct {
		interior int
		cfg      arch.Config
	}{
		{8, arch.Config{D: 1, B: 4, R: 8}},
		{600, arch.Config{D: 3, B: 32, R: 32}},
		{40, arch.Config{D: 2, B: 8, R: 16}},
		{300, arch.Config{D: 2, B: 16, R: 16, Output: arch.OutCrossbar}},
	} {
		g := dag.RandomGraph(dag.RandomConfig{
			Inputs: 3 + i, Interior: spec.interior, MaxArgs: 2 + i%3, MulFrac: 0.4, Seed: int64(i) + 500,
		})
		c, err := e.Compile(g, spec.cfg, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sim.Run(c, testInputs(c.Graph, 1))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{c, ref.Stats.Cycles})
	}
	const goroutines, iters, items = 8, 30, 5
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < iters; it++ {
				p := progs[(w+it)%len(progs)]
				sinks := p.c.Graph.Outputs()
				batches := make([][]float64, items)
				outs := make([][]float64, items)
				for b := range batches {
					batches[b] = make([]float64, len(p.c.Graph.Inputs()))
					for i := range batches[b] {
						batches[b][i] = rng.Float64()*6 - 3
					}
					outs[b] = make([]float64, len(sinks))
				}
				// Alternate whole batches (one lease per chunk) with
				// one-item batches (one lease per call).
				cycles, errs := make([]int, items), make([]error, items)
				if it%2 == 0 {
					e.ExecuteBatchInto(p.c, batches, outs, cycles, errs)
				} else {
					for b := range batches {
						e.ExecuteBatchInto(p.c, batches[b:b+1], outs[b:b+1], cycles[b:b+1], errs[b:b+1])
					}
				}
				for b := range batches {
					if errs[b] != nil {
						t.Errorf("worker %d iter %d item %d: %v", w, it, b, errs[b])
						return
					}
					if cycles[b] != p.cycles {
						t.Errorf("worker %d iter %d item %d: %d cycles, machine counts %d", w, it, b, cycles[b], p.cycles)
					}
					want, _ := dag.Eval(p.c.Graph, batches[b])
					for j, sink := range sinks {
						if outs[b][j] != want[sink] {
							t.Errorf("worker %d iter %d item %d: sink %d = %v, want %v (scratch bleed?)",
								w, it, b, sink, outs[b][j], want[sink])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := e.Stats(); st.Executions != goroutines*iters*items || st.InFlight != 0 {
		t.Errorf("executions = %d (want %d), in-flight = %d", st.Executions, goroutines*iters*items, st.InFlight)
	}
}
