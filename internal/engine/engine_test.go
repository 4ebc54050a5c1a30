package engine

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/sim"
)

// executeOne runs one input vector through ExecuteBatchInto and returns
// its sink values keyed by node id, with the cycle count the engine
// reports for it.
func executeOne(e *Engine, c *compiler.Compiled, in []float64) (*sim.Result, error) {
	sinks := c.Graph.Outputs()
	out := make([]float64, len(sinks))
	cycles, errs := make([]int, 1), make([]error, 1)
	e.ExecuteBatchInto(c, [][]float64{in}, [][]float64{out}, cycles, errs)
	if errs[0] != nil {
		return nil, errs[0]
	}
	res := &sim.Result{Outputs: make(map[dag.NodeID]float64, len(sinks)), Stats: sim.Stats{Cycles: cycles[0]}}
	for i, sink := range sinks {
		res.Outputs[sink] = out[i]
	}
	return res, nil
}

// testGraph builds a small deterministic DAG whose structure varies with
// seed: a chain of adds/muls over a few inputs.
func testGraph(seed int64) *dag.Graph {
	return dag.RandomGraph(dag.RandomConfig{
		Inputs:   4,
		Interior: 30,
		MaxArgs:  2,
		MulFrac:  0.3,
		Seed:     seed,
	})
}

func testInputs(g *dag.Graph, scale float64) []float64 {
	in := make([]float64, len(g.Inputs()))
	for i := range in {
		in[i] = scale * (0.25 + float64(i)*0.125)
	}
	return in
}

var testCfg = arch.Config{D: 2, B: 8, R: 16}

// TestResolveNormalizes: Resolve passes the request's config and
// options through untouched, normalization aside, so the handler and
// the compile cache name the same key.
func TestResolveNormalizes(t *testing.T) {
	e := New(Options{})
	g := testGraph(1)
	def := arch.MinEDP()
	cfg, opts := e.Resolve(g, def, compiler.Options{})
	if cfg != def || opts != (compiler.Options{}) {
		t.Fatalf("Resolve changed the request: %v %+v", cfg, opts)
	}
	if cfg, _ := e.Resolve(g, testCfg, compiler.Options{}); cfg != testCfg.Normalize() {
		t.Fatalf("Resolve(%v) = %v, want the normalized %v", testCfg, cfg, testCfg.Normalize())
	}
}

func TestCompileCacheHitsAndSharing(t *testing.T) {
	e := New(Options{})
	g := testGraph(1)
	c1, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("second Compile of the same graph did not return the cached program")
	}
	// A structurally identical but distinct graph object must hit too —
	// the cache is content-addressed, not pointer-addressed.
	c3, err := e.Compile(testGraph(1), testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c1 {
		t.Error("structurally identical graph missed the content-addressed cache")
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss / 2 hits", st)
	}

	// Different config and different options are different addresses.
	if _, err := e.Compile(g, arch.Config{D: 2, B: 4, R: 16}, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compile(g, testCfg, compiler.Options{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 3 {
		t.Errorf("misses = %d after config/options variants, want 3", st.Misses)
	}
}

func TestCompileCacheLRUEviction(t *testing.T) {
	e := New(Options{CacheSize: 2})
	graphs := []*dag.Graph{testGraph(1), testGraph(2), testGraph(3)}
	for _, g := range graphs {
		if _, err := e.Compile(g, testCfg, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Cached != 2 {
		t.Errorf("cached = %d, want 2", st.Cached)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// graphs[0] was the LRU victim: recompiling it is a miss; graphs[2]
	// is still resident: a hit.
	if _, err := e.Compile(graphs[0], testCfg, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compile(graphs[2], testCfg, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Misses != 4 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 4 misses / 1 hit after eviction round-trip", st)
	}
}

func TestCompileFailureSurfacesAndIsNotCached(t *testing.T) {
	e := New(Options{})
	g := testGraph(1)
	bad := arch.Config{D: 2, B: 8, R: 16, Output: arch.OutOneToOne}
	if _, err := e.Compile(g, bad, compiler.Options{}); err == nil {
		t.Fatal("expected compile failure for the one-to-one topology")
	}
	if _, err := e.Compile(g, bad, compiler.Options{}); err == nil {
		t.Fatal("expected compile failure on retry")
	}
	st := e.Stats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (failures must not be cached)", st.Misses)
	}
	if st.Cached != 0 {
		t.Errorf("cached = %d, want 0 after failures", st.Cached)
	}
}

func TestExecuteMatchesReference(t *testing.T) {
	e := New(Options{})
	for seed := int64(1); seed <= 3; seed++ {
		g := testGraph(seed)
		in := testInputs(g, 1)
		c, err := e.Compile(g, testCfg, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := executeOne(e, c, in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := dag.Eval(c.Graph, in)
		if err != nil {
			t.Fatal(err)
		}
		for sink, got := range res.Outputs {
			if got != want[sink] {
				t.Errorf("seed %d: sink %d = %v, reference %v", seed, sink, got, want[sink])
			}
		}
	}
}

func TestExecuteIntoSteadyStateIsAllocationFree(t *testing.T) {
	// Default Workers: a one-item batch clamps onto the serial path.
	e := New(Options{})
	g := testGraph(2)
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]float64{testInputs(g, 1)}
	outs := [][]float64{make([]float64, len(c.Graph.Outputs()))}
	errs := make([]error, 1)
	// Warm the evaluator free list and every lazily built cache.
	e.ExecuteBatchInto(c, batch, outs, nil, errs)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.ExecuteBatchInto(c, batch, outs, nil, errs)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state one-item ExecuteBatchInto allocates %v objects/op, want 0", allocs)
	}
}

// TestExecuteFullChunkSteadyStateIsAllocationFree is the one-item case
// above at the scheduler's chunk size: a warmed 32-item batch fills one
// 32-lane pass of the evaluator, so even an eight-worker engine runs it
// inline as a single chunk and must allocate nothing either.
func TestExecuteFullChunkSteadyStateIsAllocationFree(t *testing.T) {
	e := New(Options{Workers: 8})
	g := testGraph(2)
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	batch, outs, errs := make([][]float64, n), make([][]float64, n), make([]error, n)
	for i := range batch {
		batch[i] = testInputs(g, float64(i+1))
		outs[i] = make([]float64, len(c.Graph.Outputs()))
	}
	e.ExecuteBatchInto(c, batch, outs, nil, errs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.ExecuteBatchInto(c, batch, outs, nil, errs)
	})
	if allocs != 0 {
		t.Errorf("steady-state %d-item ExecuteBatchInto allocates %v objects/op, want 0", n, allocs)
	}
	for i := range batch {
		want, _ := dag.Eval(c.Graph, batch[i])
		for j, sink := range c.Graph.Outputs() {
			if outs[i][j] != want[sink] {
				t.Errorf("item %d sink %d = %v, want %v", i, sink, outs[i][j], want[sink])
			}
		}
	}
}

// TestExecuteBatchSalvagesPartialFailure: a malformed item fails in its
// own slot; its neighbours complete and only they count as executions.
func TestExecuteBatchSalvagesPartialFailure(t *testing.T) {
	e := New(Options{})
	g := testGraph(3)
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sinks := c.Graph.Outputs()
	batches := [][]float64{testInputs(g, 1), {1}, testInputs(g, 2)} // middle one has the wrong arity
	outs := make([][]float64, len(batches))
	for i := range outs {
		outs[i] = make([]float64, len(sinks))
	}
	errs := make([]error, len(batches))
	e.ExecuteBatchInto(c, batches, outs, nil, errs)
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("good items were not salvaged: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("malformed item did not error")
	}
	want, _ := dag.Eval(c.Graph, batches[2])
	for j, sink := range sinks {
		if outs[2][j] != want[sink] {
			t.Errorf("salvaged item: sink %d = %v, want %v", sink, outs[2][j], want[sink])
		}
	}
	if st := e.Stats(); st.Executions != 2 {
		t.Errorf("executions = %d, want 2", st.Executions)
	}
}

func TestCachedProgramImmuneToCallerMutation(t *testing.T) {
	e := New(Options{})
	// Built by hand so the graph is binary: the compiler then carries the
	// caller's graph itself (no binarization copy), the aliasing-prone
	// case.
	g := dag.New("mutate-after-compile")
	a, b := g.AddInput(), g.AddInput()
	s := g.AddOp(dag.OpAdd, a, b)
	g.AddOp(dag.OpMul, s, g.AddConst(3))
	if !g.IsBinary() {
		t.Fatal("test premise: graph should be binary")
	}
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := testInputs(g, 1)
	want, err := dag.Eval(c.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's graph after compiling must not corrupt the
	// cached program another request may share.
	g.AddOp(dag.OpAdd, 0, 1)
	res, err := executeOne(e, c, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != len(c.Graph.Outputs()) {
		t.Fatalf("output count changed after caller mutation")
	}
	for sink, got := range res.Outputs {
		if got != want[sink] {
			t.Errorf("sink %d = %v, want %v after caller mutation", sink, got, want[sink])
		}
	}
	// The mutated graph now has a new fingerprint: compiling it is a miss,
	// not a stale hit.
	if _, err := e.Compile(g, testCfg, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (mutated graph is a new address)", st.Misses)
	}
}

// TestPooledResultStatsDoNotAliasTheMachine: the evaluator is pooled,
// but what a caller holds is its own — a later execution on the same
// evaluator does not rewrite an earlier result's outputs or cycles.
func TestPooledResultStatsDoNotAliasTheMachine(t *testing.T) {
	e := New(Options{Workers: 1})
	g := testGraph(1)
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := executeOne(e, c, testInputs(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[dag.NodeID]float64, len(res1.Outputs))
	for k, v := range res1.Outputs {
		want[k] = v
	}
	if _, err := executeOne(e, c, testInputs(g, 2)); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if res1.Outputs[k] != v {
			t.Errorf("sink %d changed from %v to %v after the evaluator was reused", k, v, res1.Outputs[k])
		}
	}
	if res1.Stats.Cycles != c.Stats.Cycles {
		t.Errorf("cycles = %d, want the compile-time %d", res1.Stats.Cycles, c.Stats.Cycles)
	}
}
