package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
	"dpuv2/internal/sptrsv"
)

func randInputs(g *dag.Graph, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]float64, len(g.Inputs()))
	for i := range in {
		in[i] = rng.Float64()*4 - 2
	}
	return in
}

// runChecked runs c on a fresh machine and checks every sink against
// the reference evaluator.
func runChecked(c *compiler.Compiled, inputs []float64) (*Result, error) {
	res, err := Run(c, inputs)
	if err != nil {
		return nil, err
	}
	return res, CheckOutputs(c, inputs, res, 0)
}

func compileAndVerify(t *testing.T, g *dag.Graph, cfg arch.Config, seed int64) *Result {
	t.Helper()
	c, err := compiler.Compile(g, cfg, compiler.Options{Seed: seed})
	if err != nil {
		t.Fatalf("compile %s on %v: %v", g.Name, cfg, err)
	}
	res, err := runChecked(c, randInputs(c.Graph, seed^0xabc))
	if err != nil {
		t.Fatalf("verify %s on %v: %v", g.Name, cfg, err)
	}
	return res
}

func TestTinyChain(t *testing.T) {
	g := dag.New("tiny")
	a := g.AddInput()
	b := g.AddInput()
	c := g.AddConst(3)
	s := g.AddOp(dag.OpAdd, a, b)
	g.AddOp(dag.OpMul, s, c)
	compileAndVerify(t, g, arch.Config{D: 2, B: 8, R: 16, Output: arch.OutPerLayer}, 1)
}

func TestSingleNode(t *testing.T) {
	g := dag.New("one")
	a := g.AddInput()
	b := g.AddInput()
	g.AddOp(dag.OpMul, a, b)
	compileAndVerify(t, g, arch.Config{D: 1, B: 8, R: 16, Output: arch.OutPerLayer}, 2)
}

func TestLeafSink(t *testing.T) {
	// A graph whose sink set includes a bare input and a constant.
	g := dag.New("leafsink")
	a := g.AddInput()
	g.AddConst(7)
	b := g.AddInput()
	g.AddOp(dag.OpAdd, a, b)
	g.AddInput() // dangling input, also a sink
	compileAndVerify(t, g, arch.Config{D: 2, B: 8, R: 16, Output: arch.OutPerLayer}, 3)
}

func TestSharedFanout(t *testing.T) {
	// One value consumed by many blocks exercises broadcast reads and
	// valid_rst timing.
	g := dag.New("fanout")
	a := g.AddInput()
	b := g.AddInput()
	s := g.AddOp(dag.OpAdd, a, b)
	var outs []dag.NodeID
	for i := 0; i < 40; i++ {
		c := g.AddConst(float64(i + 1))
		outs = append(outs, g.AddOp(dag.OpMul, s, c))
	}
	g.AddOp(dag.OpAdd, outs...)
	compileAndVerify(t, g, arch.Config{D: 3, B: 16, R: 32, Output: arch.OutPerLayer}, 4)
}

func TestDeepChain(t *testing.T) {
	// Serial dependency chain: every block depends on the previous one,
	// stressing RAW gap handling (D+1 spacing with nop insertion).
	g := dag.New("chain")
	x := g.AddInput()
	cur := x
	for i := 0; i < 200; i++ {
		c := g.AddConst(1.0 + 1.0/float64(i+1))
		cur = g.AddOp(dag.OpMul, cur, c)
	}
	res := compileAndVerify(t, g, arch.Config{D: 3, B: 16, R: 32, Output: arch.OutPerLayer}, 5)
	if res.Stats.Instrs[arch.KindNop] == 0 {
		t.Log("note: no nops needed (reorderer found independent work)")
	}
}

func TestRandomGraphsAcrossConfigs(t *testing.T) {
	cfgs := []arch.Config{
		{D: 1, B: 8, R: 16, Output: arch.OutPerLayer},
		{D: 2, B: 8, R: 16, Output: arch.OutPerLayer},
		{D: 2, B: 16, R: 32, Output: arch.OutCrossbar},
		{D: 3, B: 16, R: 32, Output: arch.OutPerLayer},
		{D: 3, B: 64, R: 32, Output: arch.OutPerLayer}, // min-EDP point
		{D: 3, B: 32, R: 64, Output: arch.OutPerPE},
	}
	for ci, cfg := range cfgs {
		for s := int64(0); s < 3; s++ {
			g := dag.RandomGraph(dag.RandomConfig{
				Inputs:   10 + int(s)*7,
				Interior: 400,
				MaxArgs:  4,
				MulFrac:  0.4,
				Window:   50,
				Seed:     int64(ci)*100 + s,
			})
			compileAndVerify(t, g, cfg, s)
		}
	}
}

func TestSpillingSmallR(t *testing.T) {
	// R=4 forces heavy spilling; results must still be exact.
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 30, Interior: 300, MaxArgs: 3, MulFrac: 0.5, Seed: 9})
	cfg := arch.Config{D: 2, B: 8, R: 4, Output: arch.OutPerLayer}
	c, err := compiler.Compile(g, cfg, compiler.Options{Seed: 1})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c.Stats.SpillStores == 0 {
		t.Error("expected spills at R=4")
	}
	if _, err := runChecked(c, randInputs(c.Graph, 77)); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBankAllocationStillCorrect(t *testing.T) {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 20, Interior: 300, MaxArgs: 3, MulFrac: 0.5, Seed: 11})
	cfg := arch.Config{D: 3, B: 16, R: 64, Output: arch.OutPerLayer}
	c, err := compiler.Compile(g, cfg, compiler.Options{Seed: 1, RandomBanks: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := runChecked(c, randInputs(c.Graph, 5)); err != nil {
		t.Fatal(err)
	}
}

func TestPCWorkloadEndToEnd(t *testing.T) {
	g := pc.Build(pc.Suite()[1], 0.08) // ~800-node mnist stand-in
	compileAndVerify(t, g, arch.MinEDP(), 13)
}

func TestSpTRSVWorkloadEndToEnd(t *testing.T) {
	m := sptrsv.Leveled(120, 24, 2, 3)
	g, xs := sptrsv.Lower(m)
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := randInputs(c.Graph, 21)
	res, err := runChecked(c, b)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check a few solution components against the direct solver.
	want, err := m.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, x := range xs {
		bx := c.Remap[x]
		if got, ok := res.Outputs[bx]; ok {
			// The lowered DAG multiplies by pre-inverted diagonals and
			// re-associates sums, so agreement with the direct solver is
			// approximate (the DAG-reference comparison above is exact).
			if math.Abs(got-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("x[%d] = %v, solver %v", i, got, want[i])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no solution components were DAG sinks")
	}
}

func TestPackedProgramRoundTripExecutes(t *testing.T) {
	// Execute from the packed binary (decode path) and compare with the
	// decoded-form execution.
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 12, Interior: 150, MaxArgs: 3, MulFrac: 0.5, Seed: 17})
	cfg := arch.Config{D: 2, B: 16, R: 32, Output: arch.OutPerLayer}
	c, err := compiler.Compile(g, cfg, compiler.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	packed := c.Prog.Pack()
	back, err := arch.Unpack(packed, cfg, len(c.Prog.Instrs))
	if err != nil {
		t.Fatal(err)
	}
	c.Prog.Instrs = back
	if _, err := runChecked(c, randInputs(c.Graph, 3)); err != nil {
		t.Fatalf("packed round-trip execution diverged: %v", err)
	}
}

// TestMachineRunsOnce pins the one-shot contract: a machine keeps the
// register file, landing ring and statistics its program left, so a
// second Run is refused rather than started from that state.
func TestMachineRunsOnce(t *testing.T) {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 6, Interior: 40, MaxArgs: 3, MulFrac: 0.5, Seed: 3})
	c, err := compiler.Compile(g, arch.Config{D: 2, B: 8, R: 16}, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(c.Prog.Cfg, c.Prog.InitMem)
	if err := m.Run(c.Prog); err != nil {
		t.Fatal(err)
	}
	first := m.Stats().Cycles
	if err := m.Run(c.Prog); err == nil || !strings.Contains(err.Error(), "already run") {
		t.Fatalf("second Run = %v, want an already-run error", err)
	}
	if got := m.Stats().Cycles; got != first {
		t.Errorf("refused Run moved the clock: %d cycles, want %d", got, first)
	}
}

// runInstrs runs instrs on a fresh machine with an 8-row memory.
func runInstrs(cfg arch.Config, instrs ...*arch.Instr) error {
	cfg = cfg.Normalize()
	return NewMachine(cfg, make([]float64, 8*cfg.B)).Run(&arch.Program{Cfg: cfg, Instrs: instrs})
}

func TestMachineRejectsInvalidRead(t *testing.T) {
	cfg := arch.Config{D: 1, B: 8, R: 8, Output: arch.OutPerLayer}.Normalize()
	in := arch.NewExec(cfg)
	in.PEOps[0] = arch.PEAdd // leaf PE of tree 0 reads ports 0,1
	in.ReadEn[0] = true
	in.ReadEn[1] = true
	in.InputSel[0] = 0
	in.InputSel[1] = 1
	if err := runInstrs(cfg, in); err == nil {
		t.Fatal("expected invalid-register read error")
	}
}

func TestMachineRejectsDoubleWrite(t *testing.T) {
	cfg := arch.Config{D: 1, B: 8, R: 8, Output: arch.OutPerLayer}.Normalize()
	in := arch.NewLoad(cfg, 0)
	in.Mask[3] = true
	// A load in each of two cycles is fine…
	if err := runInstrs(cfg, in, in); err != nil {
		t.Fatal(err)
	}
	// …but two copies targeting one bank in one instruction are not.
	ld := arch.NewLoad(cfg, 0)
	ld.Mask[0], ld.Mask[1] = true, true
	cp := &arch.Instr{Kind: arch.KindCopy, Moves: []arch.Move{
		{SrcBank: 0, SrcAddr: 0, Dst: 5},
		{SrcBank: 1, SrcAddr: 0, Dst: 5},
	}}
	if err := runInstrs(cfg, ld, &arch.Instr{Kind: arch.KindNop}); err != nil {
		t.Fatal(err)
	}
	if err := runInstrs(cfg, ld, &arch.Instr{Kind: arch.KindNop}, cp); err == nil {
		t.Fatal("expected double-write error")
	}
}

func TestMachineRejectsBankOverflow(t *testing.T) {
	cfg := arch.Config{D: 1, B: 8, R: 2, Output: arch.OutPerLayer}.Normalize()
	ld := arch.NewLoad(cfg, 0)
	ld.Mask[0] = true
	if err := runInstrs(cfg, ld, ld); err != nil {
		t.Fatal(err)
	}
	if err := runInstrs(cfg, ld, ld, ld); err == nil {
		t.Fatal("expected overflow error")
	}
}

// Property: compile+simulate equals reference evaluation for arbitrary
// random graphs on the min-EDP configuration.
func TestCompileSimulateProperty(t *testing.T) {
	f := func(seed int64, nIn8, nOp8 uint8) bool {
		g := dag.RandomGraph(dag.RandomConfig{
			Inputs:   1 + int(nIn8%40),
			Interior: 1 + int(nOp8),
			MaxArgs:  2 + int(uint64(seed)%3),
			MulFrac:  0.5,
			Seed:     seed,
		})
		c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{Seed: seed})
		if err != nil {
			return false
		}
		_, err = runChecked(c, randInputs(c.Graph, seed^1))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLowerBoundMetOnTinyGraphs: on graphs small enough that one load
// and one exec cover them, the compiled program runs exactly the cycles
// LowerBound's latency term allows — the term is the machine's, not an
// estimate — and the op and leaf terms are one slot each.
func TestLowerBoundMetOnTinyGraphs(t *testing.T) {
	one := dag.New("one")
	one.AddOp(dag.OpMul, one.AddInput(), one.AddInput())
	tiny := dag.New("tiny")
	s := tiny.AddOp(dag.OpAdd, tiny.AddInput(), tiny.AddInput())
	tiny.AddOp(dag.OpMul, s, tiny.AddConst(3))
	for _, tc := range []struct {
		g   *dag.Graph
		cfg arch.Config
	}{
		{one, arch.Config{D: 1, B: 8, R: 16}},
		{one, arch.MinEDP()},
		{tiny, arch.Config{D: 2, B: 8, R: 16}},
		{tiny, arch.MinEDP()},
	} {
		res := compileAndVerify(t, tc.g, tc.cfg, 1)
		b := LowerBound(tc.g, tc.cfg)
		if b.Ops != 1 || b.Leaves != 1 || res.Stats.Cycles != b.Cycles {
			t.Errorf("%s on %v: %d cycles, bound %+v", tc.g.Name, tc.cfg, res.Stats.Cycles, b)
		}
	}
}
