package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/suite"
)

// sameBits is the machine-vs-evaluator value contract: bitwise identity for
// every representable float64 — signed zeros and infinities included —
// except NaN, where both sides must be NaN but the payload bits are
// unconstrained. IEEE 754 leaves NaN payload propagation to the
// implementation (when two NaNs with different payloads meet, hardware
// keeps the first operand's, and instruction operand order is the
// compiler's choice), so payload equality is not a meaningful claim.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}

// runFunc executes c as a one-item batch on a fresh FuncEvaluator and
// returns the sink values keyed by node id, the shape Run returns for
// the Machine.
func runFunc(c *compiler.Compiled, inputs []float64) (*Result, error) {
	outs := c.Graph.Outputs()
	out := make([]float64, len(outs))
	errs := make([]error, 1)
	new(FuncEvaluator).ExecuteBatchInto(c, [][]float64{inputs}, [][]float64{out}, errs)
	if errs[0] != nil {
		return nil, errs[0]
	}
	res := &Result{Outputs: make(map[dag.NodeID]float64, len(outs))}
	for i, sink := range outs {
		res.Outputs[sink] = out[i]
	}
	return res, nil
}

// checkStaticStats requires StaticStats(c.Prog) to equal what a Machine
// counted while running c, the whole struct, and the compile-time cycle
// count to agree with both.
func checkStaticStats(t *testing.T, c *compiler.Compiled, ran Stats) {
	t.Helper()
	st := StaticStats(c.Prog)
	if c.Stats.Cycles != ran.Cycles {
		t.Errorf("cycles: compile-time %d, machine %d", c.Stats.Cycles, ran.Cycles)
	}
	if !reflect.DeepEqual(st, ran) {
		t.Errorf("static %+v, machine %+v", st, ran)
	}
}

// TestStaticStatsMatchMachine is the oracle for "activity is a property
// of the program": over the conformance matrix, the option matrix
// (spilling R=16 rows and partitioned compiles included) and the twelve
// Table I workloads, the stateless pass over the instruction stream
// reports exactly what the machine counts while running it.
func TestStaticStatsMatchMachine(t *testing.T) {
	// The matrices must actually reach every counting rule: every
	// instruction kind, and programs that spill.
	kinds := map[arch.Kind]bool{}
	spilling := 0
	check := func(name string, g *dag.Graph, cfg arch.Config, o compiler.Options) {
		c, err := compiler.Compile(g, cfg, o)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		res, err := Run(c, randInputs(c.Graph, 5))
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { checkStaticStats(t, c, res.Stats) })
		for k, n := range c.Prog.Counts() {
			if n > 0 {
				kinds[arch.Kind(k)] = true
			}
		}
		if c.Stats.SpillStores > 0 {
			spilling++
		}
	}
	for gi, g := range conformanceGraphs(testing.Short()) {
		for _, cfg := range conformanceConfigs(testing.Short()) {
			check(fmt.Sprintf("graph%d/%s", gi, cfg), g, cfg, compiler.Options{})
		}
	}
	for si, shape := range optionMatrixShapes {
		g := dag.RandomGraph(shape)
		for _, cfg := range optionMatrixConfigs {
			for oi, o := range optionMatrixOptions {
				check(fmt.Sprintf("shape%d/%s/opts%d", si, cfg, oi), g, cfg, o)
			}
		}
	}
	for _, name := range suite.Names() {
		g, err := suite.Build(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		check(name, g, arch.MinEDP(), compiler.Options{})
	}
	for _, k := range []arch.Kind{arch.KindNop, arch.KindExec, arch.KindLoad, arch.KindStore, arch.KindStore4, arch.KindCopy} {
		if !kinds[k] {
			t.Errorf("no program in the matrices issues a %v: its counting rule is untested", k)
		}
	}
	if spilling == 0 {
		t.Error("no program in the matrices spills")
	}
}

// TestExecutorConformanceMatrix is the serving executor's correctness
// gate: over the same (graph × config) matrix that pins the machine
// against the reference evaluator, the FuncEvaluator must match the
// Machine bit-for-bit on every sink — its three trials run as one
// batch, three lanes of one pass, as the engine runs a chunk, against
// a fresh machine per trial.
func TestExecutorConformanceMatrix(t *testing.T) {
	for gi, g := range conformanceGraphs(testing.Short()) {
		for _, cfg := range conformanceConfigs(testing.Short()) {
			t.Run(fmt.Sprintf("graph%d/%s", gi, cfg), func(t *testing.T) {
				c, err := compiler.Compile(g, cfg, compiler.Options{})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				rng := rand.New(rand.NewSource(int64(gi) + 77))
				outs := c.Graph.Outputs()
				const trials = 3
				batch, fOut, errs := make([][]float64, trials), make([][]float64, trials), make([]error, trials)
				for trial := range batch {
					batch[trial] = make([]float64, len(c.Graph.Inputs()))
					for i := range batch[trial] {
						batch[trial][i] = rng.Float64()*4 - 2
					}
					fOut[trial] = make([]float64, len(outs))
				}
				new(FuncEvaluator).ExecuteBatchInto(c, batch, fOut, errs)
				for trial, inputs := range batch {
					if errs[trial] != nil {
						t.Fatalf("evaluator trial %d: %v", trial, errs[trial])
					}
					m, err := Run(c, inputs)
					if err != nil {
						t.Fatalf("machine: %v", err)
					}
					for i, sink := range outs {
						if !sameBits(m.Outputs[sink], fOut[trial][i]) {
							t.Errorf("trial %d sink %d: machine %v, evaluator %v (must be bit-exact)",
								trial, sink, m.Outputs[sink], fOut[trial][i])
						}
					}
					if mc := m.Stats.Cycles; mc != c.Stats.Cycles {
						t.Errorf("trial %d: machine ran %d cycles, compile-time count is %d", trial, mc, c.Stats.Cycles)
					}
				}
			})
		}
	}
}

// nonFiniteGraph produces every non-finite class at a sink: an input
// times 1e308 twice overflows to +Inf, negation gives −Inf, and their
// sum is NaN. Extra unit-multiplies expose the intermediate Inf values
// as sinks of their own.
func nonFiniteGraph() *dag.Graph {
	g := dag.New("nonfinite")
	x := g.AddInput()
	big := g.AddConst(1e308)
	p1 := g.AddOp(dag.OpMul, x, big)
	p2 := g.AddOp(dag.OpMul, p1, big) // +Inf for x in (1, 2)
	neg := g.AddOp(dag.OpMul, p2, g.AddConst(-1))
	nan := g.AddOp(dag.OpAdd, p2, neg) // Inf + (−Inf) = NaN
	one := g.AddConst(1)
	g.AddOp(dag.OpMul, p2, one)  // +Inf sink
	g.AddOp(dag.OpMul, neg, one) // −Inf sink
	g.AddOp(dag.OpMul, nan, one) // NaN sink
	return g
}

// TestExecutorNonFiniteConformance drives NaN and ±Inf through the
// machine, the evaluator and the reference evaluator, requiring bitwise-identical
// propagation everywhere — both from overflowing arithmetic and from
// non-finite inputs fed in directly.
func TestExecutorNonFiniteConformance(t *testing.T) {
	inputSets := [][]float64{
		{1.5},
		{math.Inf(1)},
		{math.Inf(-1)},
		{math.NaN()},
	}
	for _, cfg := range conformanceConfigs(true) {
		c, err := compiler.Compile(nonFiniteGraph(), cfg, compiler.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", cfg, err)
		}
		outs := c.Graph.Outputs()
		for si, inputs := range inputSets {
			want, err := dag.Eval(c.Graph, inputs)
			if err != nil {
				t.Fatalf("%s: eval: %v", cfg, err)
			}
			sawNaN, sawInf := false, false
			for _, sink := range outs {
				if math.IsNaN(want[sink]) {
					sawNaN = true
				}
				if math.IsInf(want[sink], 0) {
					sawInf = true
				}
			}
			if si == 0 && (!sawNaN || !sawInf) {
				t.Fatalf("fixture broke: finite-input reference must reach NaN and Inf sinks, got %v", want)
			}
			for b, run := range map[string]func(*compiler.Compiled, []float64) (*Result, error){"evaluator": runFunc, "machine": Run} {
				res, err := run(c, inputs)
				if err != nil {
					t.Fatalf("%s/%s inputs %v: %v", cfg, b, inputs, err)
				}
				for _, sink := range outs {
					got := res.Outputs[sink]
					if !sameBits(got, want[sink]) {
						t.Errorf("%s/%s inputs %v sink %d: got %v, reference %v (bitwise)",
							cfg, b, inputs, sink, got, want[sink])
					}
				}
				// The fixed CheckOutputs must agree: identical non-finite
				// propagation is a pass, for both executors.
				if err := CheckOutputs(c, inputs, res, 0); err != nil {
					t.Errorf("%s/%s inputs %v: CheckOutputs rejected identical propagation: %v", cfg, b, inputs, err)
				}
			}
		}
	}
}

// TestCheckOutputsNaNRegression pins the satellite bugfix: the old
// negated acceptance condition was false for NaN against any finite
// reference (all NaN comparisons are false), so a simulator that
// produced NaN where the reference was finite sailed through
// differential checking. A planted NaN must now fail.
func TestCheckOutputsNaNRegression(t *testing.T) {
	g := dag.New("tiny")
	a, b := g.AddInput(), g.AddInput()
	g.AddOp(dag.OpAdd, a, b)
	c, err := compiler.Compile(g, arch.Config{D: 1, B: 2, R: 8}, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []float64{2, 3}
	res, err := Run(c, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckOutputs(c, inputs, res, 0); err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	sink := c.Graph.Outputs()[0]

	// The regression: NaN against a finite reference must be an error.
	res.Outputs[sink] = math.NaN()
	if err := CheckOutputs(c, inputs, res, 0); err == nil {
		t.Error("planted NaN against finite reference passed CheckOutputs")
	}
	if err := CheckOutputs(c, inputs, res, 1e9); err == nil {
		t.Error("planted NaN passed even with a huge tolerance")
	}

	// Inf against a finite reference must fail too (|Inf−w| > any tol).
	res.Outputs[sink] = math.Inf(1)
	if err := CheckOutputs(c, inputs, res, 1e-6); err == nil {
		t.Error("planted +Inf against finite reference passed CheckOutputs")
	}

	// NaN against a NaN reference is legitimate propagation: accepted.
	nanIn := []float64{math.NaN(), 3}
	nanRes, err := Run(c, nanIn)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(nanRes.Outputs[sink]) {
		t.Fatalf("NaN input did not propagate: sink = %v", nanRes.Outputs[sink])
	}
	if err := CheckOutputs(c, nanIn, nanRes, 0); err != nil {
		t.Errorf("NaN-vs-NaN rejected: %v", err)
	}

	// Inf matching an Inf reference is exact equality: accepted at tol 0.
	infIn := []float64{math.Inf(1), 3}
	infRes, err := Run(c, infIn)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckOutputs(c, infIn, infRes, 0); err != nil {
		t.Errorf("Inf-vs-Inf rejected: %v", err)
	}
	// ...but −Inf against a +Inf reference must fail (NaN distance).
	infRes.Outputs[sink] = math.Inf(-1)
	if err := CheckOutputs(c, infIn, infRes, 1e9); err == nil {
		t.Error("−Inf against +Inf reference passed CheckOutputs")
	}
}

// TestCheckOutputsRequiresEverySink: a result that lacks a sink fails
// the check instead of passing vacuously, and of several wrong sinks
// the first in c.Graph.Outputs() order is the one reported.
func TestCheckOutputsRequiresEverySink(t *testing.T) {
	g := dag.New("two sinks")
	a, b := g.AddInput(), g.AddInput()
	g.AddOp(dag.OpAdd, a, b)
	g.AddOp(dag.OpMul, a, b)
	c, err := compiler.Compile(g, arch.Config{D: 1, B: 2, R: 8}, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{2, 5}
	res, err := Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	outs := c.Graph.Outputs()
	if len(outs) != 2 {
		t.Fatalf("graph has %d sinks, want 2", len(outs))
	}
	wrong := &Result{Outputs: map[dag.NodeID]float64{}}
	for k, v := range res.Outputs {
		wrong.Outputs[k] = v + 1
	}
	if err := CheckOutputs(c, in, wrong, 0); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sink %d =", outs[0])) {
		t.Errorf("two wrong sinks: %v, want the first sink %d reported", err, outs[0])
	}
	for _, sink := range outs {
		missing := &Result{Outputs: map[dag.NodeID]float64{}}
		for k, v := range res.Outputs {
			missing.Outputs[k] = v
		}
		delete(missing.Outputs, sink)
		if err := CheckOutputs(c, in, missing, 0); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("sink %d missing: CheckOutputs = %v, want a missing-sink error", sink, err)
		}
	}
	if err := CheckOutputs(c, in, &Result{}, 0); err == nil {
		t.Error("empty result passed CheckOutputs")
	}
}

// TestFuncEvaluatorErrors pins the evaluator's per-item error cases:
// each failing item fails in its own slot, whatever its position in the
// batch, and the good items around it are evaluated. The arity message
// is the machine path's (Run) word for word.
func TestFuncEvaluatorErrors(t *testing.T) {
	g := dag.New("tiny")
	a, b := g.AddInput(), g.AddInput()
	g.AddOp(dag.OpAdd, a, b)
	c, err := compiler.Compile(g, arch.Config{D: 1, B: 2, R: 8}, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]float64{{1}, {1, 2}, {1, 2}, {3, 4}}
	outs := [][]float64{make([]float64, 1), make([]float64, 3), make([]float64, 1), make([]float64, 1)}
	errs := []error{nil, nil, errors.New("stale"), errors.New("stale")}
	new(FuncEvaluator).ExecuteBatchInto(c, batch, outs, errs)
	if err := errs[0]; err == nil || !strings.Contains(err.Error(), "inputs provided") {
		t.Errorf("short inputs: %v", err)
	} else if _, merr := Run(c, []float64{1}); merr == nil || merr.Error() != err.Error() {
		t.Errorf("short inputs: machine says %v, evaluator %v", merr, err)
	}
	if err := errs[1]; err == nil || !strings.Contains(err.Error(), "output buffer") {
		t.Errorf("bad out buffer: %v", err)
	}
	if errs[2] != nil || outs[2][0] != 3 || errs[3] != nil || outs[3][0] != 7 {
		t.Errorf("good items: errs %v, outs %v %v; want nil, [3] [7]", errs[2:], outs[2], outs[3])
	}

	// The walk serves binarized graphs only; a unary or 3-arg node fails
	// every item of the pass instead of being evaluated.
	for _, arity := range []int{1, 3} {
		u := dag.New("unbinarized")
		args := []dag.NodeID{u.AddInput(), u.AddInput(), u.AddInput()}
		u.AddOp(dag.OpMul, args[:arity]...)
		uc := &compiler.Compiled{Graph: u, InputWord: make([]int, 3)}
		sinks := len(u.Outputs())
		errs := []error{nil, nil}
		outs := [][]float64{make([]float64, sinks), make([]float64, sinks)}
		new(FuncEvaluator).ExecuteBatchInto(uc, [][]float64{{1, 2, 3}, {4, 5, 6}}, outs, errs)
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "not binarized") {
				t.Errorf("%d-arg node, item %d: %v, want a not-binarized error", arity, i, err)
			}
		}
	}
}

// TestFuncEvaluatorSteadyStateAllocs verifies the reuse contract: once
// the scratch is warm, repeated executions of a one-item and of a
// full 32-lane batch allocate nothing.
func TestFuncEvaluatorSteadyStateAllocs(t *testing.T) {
	g := conformanceGraphs(true)[1]
	cfg := arch.Config{D: 2, B: 8, R: 16}
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, maxLanes} {
		batch, outs, errs := make([][]float64, n), make([][]float64, n), make([]error, n)
		for i := range batch {
			batch[i] = randInputs(c.Graph, int64(i))
			outs[i] = make([]float64, len(c.Graph.Outputs()))
		}
		f := new(FuncEvaluator)
		f.ExecuteBatchInto(c, batch, outs, errs) // warm the scratch
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			f.ExecuteBatchInto(c, batch, outs, errs)
		})
		if allocs != 0 {
			t.Errorf("steady-state %d-item ExecuteBatchInto allocates %v times per run, want 0", n, allocs)
		}
	}
}

// FuzzFunctionalConformance extends the fuzz layer to the two static
// claims: over fuzzer-chosen graph shapes, configurations and inputs —
// non-finite values included — the FuncEvaluator must match the Machine
// bitwise on every sink (modulo NaN payloads; see sameBits), and
// StaticStats must equal the statistics the machine counted.
func FuzzFunctionalConformance(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(16), uint8(32), 1.0, 0.5)
	f.Add(int64(7), uint8(4), uint8(1), uint8(4), uint8(4), math.Inf(1), -2.0)
	f.Add(int64(42), uint8(3), uint8(2), uint8(8), uint8(16), math.NaN(), 1e308)
	f.Fuzz(func(t *testing.T, seed int64, maxArgs, d, b, r uint8, in0, in1 float64) {
		g := dag.RandomGraph(dag.RandomConfig{
			Inputs:   2 + int(seed%5),
			Interior: 10 + int(seed%60),
			MaxArgs:  2 + int(maxArgs%4),
			MulFrac:  0.4,
			Seed:     seed,
		})
		cfg := arch.Config{D: 1 + int(d%3), B: 1 + int(b%32), R: 2 + int(r%48)}
		c, err := compiler.Compile(g, cfg, compiler.Options{})
		if err != nil {
			t.Skip() // infeasible configuration for this graph
		}
		rng := rand.New(rand.NewSource(seed))
		inputs := make([]float64, len(c.Graph.Inputs()))
		for i := range inputs {
			inputs[i] = rng.Float64()*6 - 3
		}
		// Splice the fuzzer's raw float64s (often non-finite or extreme)
		// into the input vector so the comparison covers those classes.
		if len(inputs) > 0 {
			inputs[0] = in0
		}
		if len(inputs) > 1 {
			inputs[1] = in1
		}
		mRes, err := Run(c, inputs)
		if err != nil {
			t.Fatalf("machine: %v", err)
		}
		// The vector runs as the middle lane of a three-lane pass, its
		// neighbours carrying their own inputs, so lane indexing is in
		// the comparison too.
		sinks := c.Graph.Outputs()
		batch := [][]float64{randInputs(c.Graph, seed+1), inputs, randInputs(c.Graph, seed+2)}
		outs := [][]float64{make([]float64, len(sinks)), make([]float64, len(sinks)), make([]float64, len(sinks))}
		errs := make([]error, len(batch))
		new(FuncEvaluator).ExecuteBatchInto(c, batch, outs, errs)
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("evaluator: %v", err)
		}
		for i, sink := range sinks {
			mv, fv := mRes.Outputs[sink], outs[1][i]
			if !sameBits(mv, fv) {
				t.Errorf("sink %d: machine %v (%#x), evaluator %v (%#x)",
					sink, mv, math.Float64bits(mv), fv, math.Float64bits(fv))
			}
		}
		for _, l := range []int{0, 2} {
			checkLane(t, c, batch[l], outs[l], fmt.Sprintf("neighbour lane %d", l))
		}
		checkStaticStats(t, c, mRes.Stats)
	})
}
