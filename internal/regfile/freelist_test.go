package regfile_test

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/regfile"
)

// naiveRegs is an independent model of the register file: valid bits
// per bank, frees applied at issue, and each landing write taking the
// lowest invalid address of its bank by linear scan. A bank takes at
// most one landing per cycle, so landings of one cycle commute.
type naiveRegs struct {
	valid   [][]bool
	landing map[int][]int // cycle → banks landing at its end
}

// issue applies in's frees and queues its writes as the machine would at
// cycle t.
func (n *naiveRegs) issue(cfg arch.Config, w *arch.Wiring, in *arch.Instr, t int) {
	switch in.Kind {
	case arch.KindExec:
		used := make([]bool, cfg.B)
		w.MarkPorts(in.PEOps, used)
		for port, u := range used {
			b := in.Banks[port].InputSel
			if u && in.Banks[b].ValidRst {
				n.valid[b][in.Banks[b].ReadAddr] = false
			}
		}
		for b, bc := range in.Banks {
			if bc.WriteEn {
				n.landing[t+cfg.D] = append(n.landing[t+cfg.D], b)
			}
		}
	case arch.KindLoad:
		for b, en := range in.Mask {
			if en {
				n.landing[t+1] = append(n.landing[t+1], b)
			}
		}
	case arch.KindStore:
		for b, bc := range in.Banks {
			if bc.ReadEn && bc.ValidRst {
				n.valid[b][bc.ReadAddr] = false
			}
		}
	case arch.KindCopy, arch.KindStore4:
		for _, mv := range in.Moves {
			if mv.Rst {
				n.valid[mv.SrcBank][mv.SrcAddr] = false
			}
			if in.Kind == arch.KindCopy {
				n.landing[t+1] = append(n.landing[t+1], int(mv.Dst))
			}
		}
	}
}

func (n *naiveRegs) land(t int) {
	for _, b := range n.landing[t] {
		for a := range n.valid[b] {
			if !n.valid[b][a] {
				n.valid[b][a] = true
				break
			}
		}
	}
	delete(n.landing, t)
}

// checkRegs asserts that the register file holds exactly the naive
// model's valid bits, and counts them the same.
func checkRegs(t *testing.T, rf *regfile.File[struct{}], n *naiveRegs, cycle int) {
	t.Helper()
	for b := range n.valid {
		occ := 0
		for a, v := range n.valid[b] {
			if rf.Valid(b, a) != v {
				t.Fatalf("cycle %d: bank %d addr %d: walker valid %v, linear-scan model %v", cycle, b, a, !v, v)
			}
			if v {
				occ++
			}
		}
		if got := rf.Occupied()[b]; got != occ {
			t.Fatalf("cycle %d: bank %d: walker counts %d valid registers, model %d", cycle, b, got, occ)
		}
	}
}

// TestFreeListMatchesLinearScanOnTrace replays real compiled program
// traces instruction by instruction and checks after every cycle that
// the register file the machine and the verifier walk on made exactly
// the allocations a linear-scan priority encoder makes — bit for bit
// across the whole trace, including spill-induced churn. Which address
// a write takes never depends on the values, so the walk carries none.
func TestFreeListMatchesLinearScanOnTrace(t *testing.T) {
	cases := []struct {
		name string
		cfg  arch.Config
		gen  dag.RandomConfig
	}{
		{
			// R=65 straddles a bitmap word boundary.
			"wordBoundary",
			arch.Config{D: 2, B: 8, R: 65},
			dag.RandomConfig{Inputs: 24, Interior: 400, MaxArgs: 3, MulFrac: 0.5, Seed: 41},
		},
		{
			// Tiny R forces spilling, churning frees and reallocations.
			"spilling",
			arch.Config{D: 2, B: 8, R: 6},
			dag.RandomConfig{Inputs: 20, Interior: 300, MaxArgs: 3, MulFrac: 0.5, Seed: 42},
		},
		{
			"minEDP",
			arch.MinEDP(),
			dag.RandomConfig{Inputs: 16, Interior: 500, MaxArgs: 4, MulFrac: 0.4, Seed: 43},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := dag.RandomGraph(tc.gen)
			c, err := compiler.Compile(g, tc.cfg, compiler.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			cfg := c.Prog.Cfg
			walk := regfile.NewWalker[struct{}](cfg, regfile.NoPayload{})
			n := &naiveRegs{valid: make([][]bool, cfg.B), landing: map[int][]int{}}
			for b := range n.valid {
				n.valid[b] = make([]bool, cfg.R)
			}
			w := cfg.Wiring()
			for i := range c.Prog.Instrs {
				in := &c.Prog.Instrs[i]
				n.issue(cfg, w, in, walk.Cycle())
				n.land(walk.Cycle())
				if err := walk.Step(in); err != nil {
					t.Fatalf("instruction %d: %v", i, err)
				}
				checkRegs(t, walk.File(), n, walk.Cycle())
			}
			// The drain: cycles that issue nothing.
			for d := 0; d < cfg.D+1; d++ {
				n.land(walk.Cycle())
				if err := walk.Step(&arch.Instr{Kind: arch.KindNop}); err != nil {
					t.Fatal(err)
				}
				checkRegs(t, walk.File(), n, walk.Cycle())
			}
			if len(n.landing) != 0 {
				t.Fatalf("writes still in flight after the drain: %v", n.landing)
			}
		})
	}
}
