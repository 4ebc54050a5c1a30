package dpuv2

import (
	"math"
	"testing"

	"dpuv2/internal/energy"
	"dpuv2/internal/sim"
	"dpuv2/internal/suite"
)

func TestFacadeQuickstart(t *testing.T) {
	g := NewGraph("demo")
	a := g.AddInput()
	b := g.AddInput()
	s := g.AddOp(OpAdd, a, b)
	c := g.AddConst(3)
	root := g.AddOp(OpMul, s, c)

	prog, err := Compile(g, MinEDP(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.BinarySize() <= 0 || len(prog.Binary()) != prog.BinarySize() {
		t.Fatal("binary size inconsistent")
	}
	res, err := Execute(prog, []float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs[prog.SinkOf(root)]
	if got != 21 {
		t.Fatalf("result = %v, want 21", got)
	}
	if res.Report.Cycles <= 0 || res.Report.ThroughputGOPS <= 0 {
		t.Fatalf("report not populated: %+v", res.Report)
	}
	if math.IsNaN(res.Report.EnergyPerOpPJ) || res.Report.EnergyPerOpPJ <= 0 {
		t.Fatalf("energy estimate broken: %+v", res.Report)
	}
}

func TestFacadeStats(t *testing.T) {
	g := NewGraph("s")
	x := g.AddInput()
	cur := x
	for i := 0; i < 50; i++ {
		cur = g.AddOp(OpAdd, cur, g.AddConst(float64(i)))
	}
	prog, err := Compile(g, Config{D: 2, B: 8, R: 16}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats()
	if st.Execs == 0 || st.Instructions == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestFacadeRejectsBadConfig(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddInput()
	g.AddOp(OpAdd, a, a)
	if _, err := Compile(g, Config{D: 9, B: 4, R: 1}, CompileOptions{}); err == nil {
		t.Fatal("expected config validation error")
	}
}

// TestFacadeSinkOf exercises the original-id → binarized-sink remapping
// on a graph that actually binarizes (a 3-ary node), where the remap is
// not the identity.
func TestFacadeSinkOf(t *testing.T) {
	g := NewGraph("kary")
	a, b, c := g.AddInput(), g.AddInput(), g.AddInput()
	root := g.AddOp(OpAdd, a, b, c)

	prog, err := Compile(g, Config{D: 2, B: 8, R: 16}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(prog, []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	sink := prog.SinkOf(root)
	got, ok := res.Outputs[sink]
	if !ok {
		t.Fatalf("SinkOf(%d) = %d, not present in outputs %v", root, sink, res.Sinks)
	}
	if got != 7 {
		t.Fatalf("sum = %v, want 7", got)
	}
	found := false
	for _, s := range res.Sinks {
		if s == sink {
			found = true
		}
	}
	if !found {
		t.Fatalf("sink %d missing from Sinks %v", sink, res.Sinks)
	}
}

// TestFacadeBinaryConsistency pins the packed-binary accessors: the
// stream length matches BinarySize, is deterministic, and both agree
// with the bit-level size.
func TestFacadeBinaryConsistency(t *testing.T) {
	g := NewGraph("bin")
	x := g.AddInput()
	cur := x
	for i := 0; i < 20; i++ {
		cur = g.AddOp(OpMul, cur, g.AddConst(1.5))
	}
	prog, err := Compile(g, Config{D: 2, B: 8, R: 16}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bin := prog.Binary()
	if len(bin) != prog.BinarySize() {
		t.Fatalf("len(Binary) = %d, BinarySize = %d", len(bin), prog.BinarySize())
	}
	if prog.BinarySize() == 0 {
		t.Fatal("empty binary for a non-trivial program")
	}
	bin2 := prog.Binary()
	for i := range bin {
		if bin[i] != bin2[i] {
			t.Fatalf("Binary() not deterministic at byte %d", i)
		}
	}
}

func TestFacadeWrongInputCount(t *testing.T) {
	g := NewGraph("arity")
	a, b := g.AddInput(), g.AddInput()
	g.AddOp(OpAdd, a, b)
	prog, err := Compile(g, MinEDP(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(prog, []float64{1}); err == nil {
		t.Error("expected error for too few inputs")
	}
	if _, err := Execute(prog, []float64{1, 2, 3}); err == nil {
		t.Error("expected error for too many inputs")
	}
}

// TestFacadeErrorText pins what a caller reads when an execution fails:
// Execute wraps the executor's error in a "dpuv2: " prefix and nothing
// else, ExecuteBatch adds "batch i: " to the failing item alone, and
// only completed items count as executions.
func TestFacadeErrorText(t *testing.T) {
	en := NewEngine(EngineOptions{})
	g := NewGraph("text")
	a, b := g.AddInput(), g.AddInput()
	g.AddOp(OpAdd, a, b)
	prog, err := en.Compile(g, MinEDP(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const arity = "dpuv2: sim: 1 inputs provided, graph has 2"
	if _, err := en.Execute(prog, []float64{1}); err == nil || err.Error() != arity {
		t.Errorf("Execute error = %v, want %q", err, arity)
	}
	if st := en.Stats(); st.Executions != 0 {
		t.Errorf("executions after a failed Execute = %d, want 0", st.Executions)
	}
	res, err := en.ExecuteBatch(prog, [][]float64{{1, 2}, {1}, {3, 4}})
	if want := "batch 1: " + arity; err == nil || err.Error() != want {
		t.Errorf("ExecuteBatch error = %v, want %q", err, want)
	}
	if res[0] == nil || res[1] != nil || res[2] == nil {
		t.Errorf("ExecuteBatch results = %v, want items 0 and 2 only", res)
	}
	if st := en.Stats(); st.Executions != 2 {
		t.Errorf("executions = %d, want 2", st.Executions)
	}
}

// TestFacadeCompileFailureSurfaces covers the failure paths through the
// engine-backed Compile: structural validation and config validation
// both surface, and a failed key is retried (not cached).
func TestFacadeCompileFailureSurfaces(t *testing.T) {
	empty := NewGraph("empty")
	if _, err := Compile(empty, MinEDP(), CompileOptions{}); err == nil {
		t.Error("expected validation error for an empty graph")
	}
	// Same failing call again: must fail identically, not return a stale
	// cached success or panic on a cached error entry.
	if _, err := Compile(empty, MinEDP(), CompileOptions{}); err == nil {
		t.Error("expected validation error on retry")
	}
}

// TestFacadeEngine exercises the serving layer through the public API:
// cache hits for repeat compiles, batched execution with per-item error
// capture, and the stats snapshot.
func TestFacadeEngine(t *testing.T) {
	en := NewEngine(EngineOptions{CacheSize: 4})
	g := NewGraph("serve")
	a, b := g.AddInput(), g.AddInput()
	s := g.AddOp(OpAdd, a, b)
	root := g.AddOp(OpMul, s, g.AddConst(2))

	cfg := Config{D: 2, B: 8, R: 16}
	prog, err := en.Compile(g, cfg, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.Compile(g, cfg, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	st := en.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit", st)
	}

	batches := [][]float64{{1, 2}, {3}, {4, 5}} // middle has wrong arity
	results, err := en.ExecuteBatch(prog, batches)
	if err == nil {
		t.Fatal("expected joined error for the malformed batch")
	}
	if results[1] != nil {
		t.Error("failed batch has a result")
	}
	for i, want := range map[int]float64{0: 6, 2: 18} {
		if results[i] == nil {
			t.Fatalf("batch %d was not salvaged", i)
		}
		if got := results[i].Outputs[prog.SinkOf(root)]; got != want {
			t.Errorf("batch %d = %v, want %v", i, got, want)
		}
		if results[i].Report.Cycles <= 0 {
			t.Errorf("batch %d report not populated", i)
		}
	}
	if st := en.Stats(); st.Executions != 2 {
		t.Errorf("executions = %d, want 2", st.Executions)
	}
}

// TestFacadeDefaultEngineCaching checks that the package-level
// Compile/Execute really ride the shared default engine: recompiling a
// structurally identical graph is a cache hit.
func TestFacadeDefaultEngineCaching(t *testing.T) {
	build := func() *Graph {
		g := NewGraph("dflt")
		a, b := g.AddInput(), g.AddInput()
		g.AddOp(OpMul, g.AddOp(OpAdd, a, b), g.AddConst(31))
		return g
	}
	before := DefaultEngine().Stats()
	p1, err := Compile(build(), MinEDP(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(build(), MinEDP(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := DefaultEngine().Stats()
	if after.Hits <= before.Hits {
		t.Errorf("no cache hit recorded: before %+v, after %+v", before, after)
	}
	r1, err := Execute(p1, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(p2, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outputs[r1.Sinks[0]] != 155 || r2.Outputs[r2.Sinks[0]] != 155 {
		t.Errorf("results = %v / %v, want 155", r1.Outputs, r2.Outputs)
	}
}

// TestFacadeReportMatchesCycleAccurateEnergy pins the façade's energy
// numbers to the model the rest of the repository reports: Result.Report
// — derived from the instruction stream, nothing simulated — must be
// energy.EstimateRun over the statistics the cycle-accurate machine
// counts when it actually runs the program.
func TestFacadeReportMatchesCycleAccurateEnergy(t *testing.T) {
	g, err := suite.Build("tretail", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]float64, len(g.Inputs()))
	for i := range inputs {
		inputs[i] = 0.5 + 0.001*float64(i%97)
	}
	prog, err := Compile(g, MinEDP(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(prog.compiled, inputs)
	if err != nil {
		t.Fatal(err)
	}
	est := energy.EstimateRun(prog.compiled.Prog.Cfg, prog.compiled.Stats.Nodes, ref.Stats, prog.compiled.Prog)
	want := Report{
		Cycles:         ref.Stats.Cycles,
		ThroughputGOPS: est.ThroughputGOP,
		PowerMW:        est.PowerMW,
		EnergyPerOpPJ:  est.EnergyPerOp,
		EDP:            est.EDP,
	}
	if res.Report != want {
		t.Errorf("report %+v, want the cycle-accurate estimate %+v", res.Report, want)
	}
}
