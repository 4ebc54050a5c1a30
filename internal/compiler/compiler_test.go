package compiler

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
)

func testGraph(seed int64, n int) *dag.Graph {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 20, Interior: n, MaxArgs: 3, MulFrac: 0.5, Seed: seed})
	bg, _ := dag.Binarize(g)
	return bg
}

func decomposeFor(t *testing.T, g *dag.Graph, cfg arch.Config) []*Block {
	t.Helper()
	return decomposeWith(t, g, cfg, Options{}, fullSearch().cuts)
}

// cutSpaces is every cut list decompose is run with: Plan's, which
// chooses between the two cuts, and each cut alone.
var cutSpaces = []struct {
	name string
	cuts []cutPolicy
}{{"chosen", fullSearch().cuts}, {"greedy", []cutPolicy{cutGreedy}}, {"band", []cutPolicy{cutBand}}}

func decomposeWith(t *testing.T, g *dag.Graph, cfg arch.Config, opts Options, cuts []cutPolicy) []*Block {
	t.Helper()
	blocks, err := new(decomposer).decompose(g, cfg.Normalize(), partitionKeys(nil, g, dag.DFSOrder(g), opts.PartitionSize), cuts)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// Step-1 invariants of the blocks that are executed, i.e. after
// coneSched.schedule re-binned the DFS cut: every interior node in exactly one
// cone, cone depths within D, slot root layer = cone depth, slots disjoint,
// and block order topological (constraint A) — strictly: a cone reads
// nothing of another cone in its own block. Checked on the shapes, configs
// and option rows of internal/verify's conformance matrix, under each cut.
func TestDecomposeInvariants(t *testing.T) {
	type tcase struct {
		g    *dag.Graph
		cfg  arch.Config
		opts Options
	}
	cases := []tcase{{testGraph(5, 800), arch.Config{D: 3, B: 16, R: 32}, Options{}}}
	for _, shape := range []dag.RandomConfig{
		{Inputs: 6, Interior: 120, MaxArgs: 2, MulFrac: 0.3, Window: 8, Seed: 1},   // deep
		{Inputs: 60, Interior: 240, MaxArgs: 4, MulFrac: 0.6, Seed: 2},             // wide
		{Inputs: 16, Interior: 300, MaxArgs: 3, MulFrac: 0.5, Window: 60, Seed: 3}, // mixed
	} {
		g, _ := dag.Binarize(dag.RandomGraph(shape))
		for _, cfg := range []arch.Config{
			{D: 1, B: 16, R: 16, Output: arch.OutCrossbar},
			{D: 2, B: 8, R: 24, Output: arch.OutPerPE},
			{D: 3, B: 32, R: 16},
		} {
			for _, opts := range []Options{
				{},
				{PartitionSize: 16},
				{RandomBanks: true, PartitionSize: 16},
				{RandomBanks: true, PartitionSize: 64},
				{RandomBanks: true},
				{PartitionSize: 64},
			} {
				cases = append(cases, tcase{g, cfg, opts})
			}
		}
	}
	for _, p := range cutSpaces {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for ci, tc := range cases {
				checkDecomposition(t, ci, tc.g, tc.cfg.Normalize(), decomposeWith(t, tc.g, tc.cfg, tc.opts, p.cuts))
			}
		})
	}
}

func checkDecomposition(t *testing.T, ci int, g *dag.Graph, cfg arch.Config, blocks []*Block) {
	t.Helper()
	covered := make(map[dag.NodeID]int)
	blockOf := make(map[dag.NodeID]int)
	coneOf := make(map[dag.NodeID]dag.NodeID) // node -> its cone's sink
	for bi, b := range blocks {
		if len(b.Subgraphs) == 0 {
			t.Fatalf("case %d block %d: empty", ci, bi)
		}
		usedPE := map[int]bool{}
		for _, sg := range b.Subgraphs {
			if sg.Depth < 1 || sg.Depth > cfg.D {
				t.Fatalf("case %d block %d: subgraph depth %d out of range", ci, bi, sg.Depth)
			}
			if sg.Root.Layer != sg.Depth {
				t.Fatalf("case %d block %d: slot root layer %d != depth %d", ci, bi, sg.Root.Layer, sg.Depth)
			}
			// Subtree slots within one block must be disjoint: collect
			// the slot's PE ids.
			var walk func(p arch.PE)
			walk = func(p arch.PE) {
				id := cfg.PEID(p)
				if usedPE[id] {
					t.Fatalf("case %d block %d: overlapping slots at PE %d", ci, bi, id)
				}
				usedPE[id] = true
				if l, r, ok := cfg.Children(p); ok {
					walk(l)
					walk(r)
				}
			}
			walk(sg.Root)
			for _, n := range sg.Nodes {
				covered[n]++
				blockOf[n] = bi
				coneOf[n] = sg.Sink
			}
		}
	}
	interior := 0
	for i := 0; i < g.NumNodes(); i++ {
		id := dag.NodeID(i)
		if g.Op(id).IsLeaf() {
			continue
		}
		interior++
		if covered[id] != 1 {
			t.Fatalf("case %d: node %d covered %d times", ci, id, covered[id])
		}
		// Constraint A: args must be leaves, in the same cone, or in an
		// earlier block.
		for _, a := range g.Args(id) {
			if g.Op(a).IsLeaf() || coneOf[a] == coneOf[id] {
				continue
			}
			if blockOf[a] >= blockOf[id] {
				t.Fatalf("case %d: node %d (block %d) depends on node %d (block %d) of another cone", ci, id, blockOf[id], a, blockOf[a])
			}
		}
	}
	if interior == 0 {
		t.Fatalf("case %d: degenerate test graph", ci)
	}
}

// Expansion invariants: ports feed leaf PEs consistently, every
// non-idle PE has live operands, outputs have writable PEs.
func TestExpandInvariants(t *testing.T) {
	cfg := arch.Config{D: 3, B: 16, R: 32}.Normalize()
	g := testGraph(7, 500)
	blocks := decomposeFor(t, g, cfg)
	exp := new(expansion)
	exp.reset(cfg, g.NumNodes())
	for bi, b := range blocks {
		if err := exp.expand(g, b); err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		if len(b.PEOps) != cfg.NumPEs() || len(b.PortVal) != cfg.B {
			t.Fatalf("block %d: wrong artifact sizes", bi)
		}
		if len(b.OutPE) != len(b.Outputs) {
			t.Fatalf("block %d: %d output PEs for %d outputs", bi, len(b.OutPE), len(b.Outputs))
		}
		for i, pe := range b.OutPE {
			if b.PEOps[cfg.PEID(pe)] != arch.PEAdd && b.PEOps[cfg.PEID(pe)] != arch.PEMul {
				t.Fatalf("block %d: output %d driven by non-arithmetic PE", bi, b.Outputs[i])
			}
		}
		// Every arithmetic leaf PE's ports are populated.
		for id, op := range b.PEOps {
			p := cfg.PECoord(id)
			if p.Layer != 1 {
				continue
			}
			l, r := cfg.InputPorts(p)
			switch op {
			case arch.PEAdd, arch.PEMul:
				if b.PortVal[l] == InvalidVal || b.PortVal[r] == InvalidVal {
					t.Fatalf("block %d: leaf PE %d missing port values", bi, id)
				}
			case arch.PEBypassL:
				if b.PortVal[l] == InvalidVal {
					t.Fatalf("block %d: bypass PE %d missing left port", bi, id)
				}
			}
		}
	}
}

// Step-2 invariants: hardware-writable constraint (H) always holds; the
// conflict-aware allocator produces far fewer violations of F/G than
// random assignment.
func TestBankAllocationRespectsHardware(t *testing.T) {
	cfg := arch.Config{D: 3, B: 16, R: 32}.Normalize()
	g := testGraph(9, 600)
	blocks := decomposeFor(t, g, cfg)
	exp := new(expansion)
	exp.reset(cfg, g.NumNodes())
	for _, b := range blocks {
		if err := exp.expand(g, b); err != nil {
			t.Fatal(err)
		}
	}
	ba := new(bankAlloc)
	if err := ba.allocate(g, cfg, blocks, Options{}, 1); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		for i, v := range b.Outputs {
			bank := int(ba.bank[v])
			if bank < 0 {
				t.Fatalf("output %d unassigned", v)
			}
			if !cfg.CanWrite(b.OutPE[i], bank) {
				// Constraint H is soft only through post-copies; the
				// allocator itself must stay within the writable set.
				t.Fatalf("output %d assigned bank %d outside PE reach", v, bank)
			}
		}
	}
}

func countConflicts(t *testing.T, g *dag.Graph, cfg arch.Config, random bool) int {
	t.Helper()
	s := fullSearch()
	s.seed = 3
	c, err := compile(g, cfg, Options{RandomBanks: random}, s)
	if err != nil {
		t.Fatal(err)
	}
	return c.Stats.CopiedWords
}

func TestConflictAwareBeatsRandom(t *testing.T) {
	// Fig. 10(b): the paper reports ~292× fewer conflicts than random
	// allocation; the exact factor depends on the workload, but ours must
	// be at least an order of magnitude.
	cfg := arch.Config{D: 3, B: 32, R: 64}
	g := pc.Build(pc.Suite()[0], 0.25)
	ours := countConflicts(t, g, cfg, false)
	random := countConflicts(t, g, cfg, true)
	if ours*5 > random {
		t.Fatalf("conflict-aware allocation not clearly better: ours=%d random=%d", ours, random)
	}
}

func TestCompileDeterministic(t *testing.T) {
	cfg := arch.Config{D: 3, B: 16, R: 32}
	tight := arch.Config{D: 3, B: 16, R: 6}
	tretail := pc.Build(pc.Suite()[0], 0.25)
	for _, p := range cutSpaces {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			s := fullSearch()
			s.cuts = p.cuts
			checkCompileDeterministic(t, tretail, cfg, tight, s)
		})
	}
}

func checkCompileDeterministic(t *testing.T, tretail *dag.Graph, cfg, tight arch.Config, s search) {
	for _, tc := range []struct {
		name string
		g    *dag.Graph
		cfg  arch.Config
		opts Options
		seed int64
	}{
		{"random", testGraph(11, 400), cfg, Options{}, 42},
		{"tretail@0.25", tretail, cfg, Options{}, 0},
		{"tretail@0.25 partitioned", tretail, cfg, Options{PartitionSize: 200}, 0},
		// Several banks over capacity at once: the order spill victims are
		// gathered in decides how they pack into stores.
		{"tretail@0.25 spilling", tretail, tight, Options{}, 0},
	} {
		s.seed = tc.seed
		a, err := compile(tc.g, tc.cfg, tc.opts, s)
		if err != nil {
			t.Fatal(err)
		}
		if tc.cfg == tight && a.Stats.SpillStores == 0 {
			t.Errorf("%s: no spills, the case is vacuous", tc.name)
		}
		for i := 0; i < 3; i++ {
			b, err := compile(tc.g, tc.cfg, tc.opts, s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Prog.Pack(), b.Prog.Pack()) {
				t.Errorf("%s: two compiles of one graph packed to different programs", tc.name)
				break
			}
		}
	}
}

// TestCompileRejectsOneToOne: fig. 6(d), the one-to-one topology without
// an input crossbar, is not modeled, so its old enum value 3 is an
// unknown topology.
func TestCompileRejectsOneToOne(t *testing.T) {
	g := testGraph(1, 50)
	_, err := Compile(g, arch.Config{D: 2, B: 8, R: 16, Output: arch.OutPerPE + 1}, Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown output topology 3") {
		t.Fatalf("got %v, want the unknown output topology 3 rejected", err)
	}
}

func TestCompileRejectsTooManyBanks(t *testing.T) {
	g := testGraph(1, 50)
	_, err := Compile(g, arch.Config{D: 3, B: 128, R: 16}, Options{})
	if err == nil {
		t.Fatal("expected rejection of B>64")
	}
}

// TestCompileRejectsPartitionSizeOutOfRange: Options is a content address,
// so every value Plan accepts must be one the artifact format can carry
// and must name a program of its own. A negative size would compile the
// unpartitioned program under a second key.
func TestCompileRejectsPartitionSizeOutOfRange(t *testing.T) {
	g := testGraph(1, 50)
	for _, n := range []int{-1, math.MaxInt32 + 1} {
		if _, err := Compile(g, arch.MinEDP(), Options{PartitionSize: n}); err == nil {
			t.Errorf("PartitionSize %d compiled", n)
		}
	}
	if _, err := Compile(g, arch.MinEDP(), Options{PartitionSize: math.MaxInt32}); err != nil {
		t.Errorf("PartitionSize MaxInt32: %v", err)
	}
}

func TestCompileTinyRegisterFileFails(t *testing.T) {
	// R=2 cannot hold even one block's inputs; the compiler must fail
	// with a diagnostic rather than emit a wrong program.
	g := testGraph(13, 200)
	_, err := Compile(g, arch.Config{D: 3, B: 16, R: 2}, Options{})
	if err == nil {
		t.Skip("R=2 compiled successfully (unusually small working set)")
	}
	t.Log(err)
}

func TestStatsAccounting(t *testing.T) {
	g := testGraph(15, 600)
	cfg := arch.Config{D: 3, B: 16, R: 32}
	c, err := Compile(g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats
	if s.Execs != s.Blocks {
		t.Errorf("execs %d != blocks %d", s.Execs, s.Blocks)
	}
	counts := c.Prog.Counts()
	if counts[arch.KindExec] != s.Execs {
		t.Errorf("program exec count %d != stats %d", counts[arch.KindExec], s.Execs)
	}
	if counts[arch.KindNop] != s.Nops {
		t.Errorf("program nop count %d != stats %d", counts[arch.KindNop], s.Nops)
	}
	if s.Instructions != len(c.Prog.Instrs) {
		t.Errorf("instruction count mismatch")
	}
	if s.Cycles != s.Instructions+cfg.D+1 {
		t.Errorf("cycles %d != instrs+D+1", s.Cycles)
	}
	if s.MeanUtil <= 0 || s.MeanUtil > 1 || s.PeakUtil < s.MeanUtil {
		t.Errorf("utilization accounting broken: mean=%v peak=%v", s.MeanUtil, s.PeakUtil)
	}
	if s.CompileSeconds <= 0 {
		t.Errorf("compile time not recorded")
	}
}

func TestReorderRespectsGaps(t *testing.T) {
	// Synthetic draft: producer exec then dependent exec; they must end
	// up ≥ D+1 slots apart.
	ops := []*draftOp{
		{kind: dExec, wrs: []ValID{0}},
		{kind: dExec, reads: []ValID{0}, wrs: []ValID{1}},
		{kind: dExec, wrs: []ValID{2}},
		{kind: dExec, wrs: []ValID{3}},
	}
	sched := new(planScratch).reorder(ops, make([]valInfo, 4), arch.Config{D: 3}, 300)
	pos := map[*draftOp]int{}
	for i, op := range sched {
		if op != nil {
			pos[op] = i
		}
	}
	if pos[ops[1]]-pos[ops[0]] < 4 {
		t.Fatalf("dependent execs %d apart, want ≥4", pos[ops[1]]-pos[ops[0]])
	}
	// Independent execs should have been hoisted into the gap.
	if pos[ops[2]] > pos[ops[1]] || pos[ops[3]] > pos[ops[1]] {
		t.Fatalf("independent work not hoisted: %v", pos)
	}
}

// TestReorderRespectsWritePort: each bank takes one write per cycle, so
// step 3 must never issue two writes that land on one bank in the same
// cycle, even where both ops are ready by their operands. With D=3 an
// exec lands 3 cycles after issue and a load or copy 1, so in draft
// order the third op of each case would land two cycles after the first
// and on its bank: a load of a leaf homed on the exec's output bank, and
// a copy into it.
func TestReorderRespectsWritePort(t *testing.T) {
	cfg := arch.Config{D: 3}
	vals := make([]valInfo, 5)
	vals[2].bank = 0 // the loaded leaf's home
	for name, third := range map[string]*draftOp{
		"load": {kind: dLoad, wrs: []ValID{2}},
		"copy": {kind: dCopy, reads: []ValID{3}, wrs: []ValID{2}, moves: []draftMove{{src: 3, dst: 0, w: 2}}},
	} {
		ops := []*draftOp{
			{kind: dExec, wrs: []ValID{0}, outBank: []int8{0}},
			{kind: dExec, wrs: []ValID{1}, outBank: []int8{1}},
			third,
			{kind: dExec, reads: []ValID{2}, wrs: []ValID{4}, outBank: []int8{2}},
		}
		sched := new(planScratch).reorder(ops, vals, cfg, 300)
		pos := map[*draftOp]int{}
		landed := map[[2]int]int{} // (bank, cycle) → the slot whose write lands there
		for i, op := range sched {
			if op == nil {
				continue
			}
			pos[op] = i
			banks := []int{}
			switch op.kind {
			case dLoad:
				for _, w := range op.wrs {
					banks = append(banks, int(vals[w].bank))
				}
			case dCopy:
				for _, m := range op.moves {
					banks = append(banks, m.dst)
				}
			case dExec:
				for _, b := range op.outBank {
					banks = append(banks, int(b))
				}
			}
			at := i + cfg.WriteLatency(op.kind)
			for _, b := range banks {
				if prev, ok := landed[[2]int{b, at}]; ok {
					t.Errorf("%s: slots %d and %d both land on bank %d at cycle %d", name, prev, i, b, at)
				}
				landed[[2]int{b, at}] = i
			}
		}
		if len(pos) != len(ops) {
			t.Fatalf("%s: %d of %d ops scheduled", name, len(pos), len(ops))
		}
		if pos[ops[3]] <= pos[third]+1 {
			t.Errorf("%s: the reader issued before its operand landed: slots %v", name, pos)
		}
	}
}

func TestWindowLimitsReordering(t *testing.T) {
	// With window=1 the scheduler degenerates to in-order issue with nop
	// slots; with the default window it finds the independent ops.
	var ops []*draftOp
	ops = append(ops, &draftOp{kind: dExec, wrs: []ValID{0}})
	ops = append(ops, &draftOp{kind: dExec, reads: []ValID{0}, wrs: []ValID{1}})
	for i := 2; i < 10; i++ {
		ops = append(ops, &draftOp{kind: dExec, wrs: []ValID{ValID(i)}})
	}
	narrow := new(planScratch).reorder(ops, make([]valInfo, 10), arch.Config{D: 3}, 1)
	wide := new(planScratch).reorder(ops, make([]valInfo, 10), arch.Config{D: 3}, 300)
	nNops := func(s []*draftOp) int {
		n := 0
		for _, op := range s {
			if op == nil {
				n++
			}
		}
		return n
	}
	if nNops(narrow) <= nNops(wide) {
		t.Fatalf("narrow window should need more nop slots: %d vs %d", nNops(narrow), nNops(wide))
	}
}

func TestProgramSizeReduction(t *testing.T) {
	// §III-B: automatic write addressing should save on the order of 30%
	// program size versus explicit write addresses.
	g := pc.Build(pc.Suite()[0], 0.25)
	c, err := Compile(g, arch.Config{D: 3, B: 16, R: 32}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto := c.Prog.BitSize()
	fixed := c.Prog.FixedWriteAddrBits()
	saving := 1 - float64(auto)/float64(fixed)
	if saving < 0.05 || saving > 0.6 {
		t.Fatalf("program-size saving %.1f%% outside plausible range", saving*100)
	}
}
