package sim

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
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
			if b := in.InputSel[port]; u && in.ValidRst[b] {
				n.valid[b][in.ReadAddr[b]] = false
			}
		}
		for b, en := range in.WriteEn {
			if en {
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
		for b, en := range in.ReadEn {
			if en && in.ValidRst[b] {
				n.valid[b][in.ReadAddr[b]] = false
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

// checkRegs asserts that the machine's register file holds exactly the
// naive model's valid bits, and counts them the same.
func checkRegs(t *testing.T, m *Machine, n *naiveRegs, cycle int) {
	t.Helper()
	rf := m.walk.File()
	for b := range n.valid {
		occ := 0
		for a, v := range n.valid[b] {
			if rf.Valid(b, a) != v {
				t.Fatalf("cycle %d: bank %d addr %d: machine valid %v, linear-scan model %v", cycle, b, a, !v, v)
			}
			if v {
				occ++
			}
		}
		if got := rf.Occupied()[b]; got != occ {
			t.Fatalf("cycle %d: bank %d: machine counts %d valid registers, model %d", cycle, b, got, occ)
		}
	}
}

// TestFreeListMatchesLinearScanOnTrace replays real compiled program
// traces instruction by instruction and checks after every cycle that
// the machine's register file (the shared regfile core) made exactly the
// allocations a linear-scan priority encoder makes — bit for bit across
// the whole trace, including spill-induced churn.
func TestFreeListMatchesLinearScanOnTrace(t *testing.T) {
	cases := []struct {
		name string
		cfg  arch.Config
		gen  dag.RandomConfig
	}{
		{
			// R=65 straddles a bitmap word boundary.
			"wordBoundary",
			arch.Config{D: 2, B: 8, R: 65, Output: arch.OutPerLayer},
			dag.RandomConfig{Inputs: 24, Interior: 400, MaxArgs: 3, MulFrac: 0.5, Seed: 41},
		},
		{
			// Tiny R forces spilling, churning frees and reallocations.
			"spilling",
			arch.Config{D: 2, B: 8, R: 6, Output: arch.OutPerLayer},
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
			c, err := compiler.Compile(g, tc.cfg, compiler.Options{Seed: 7})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := NewMachine(c.Prog.Cfg, c.Prog.InitMem)
			for i, w := range c.InputWord {
				if w >= 0 {
					if err := m.SetMem(w, 0.25+float64(i%11)/13); err != nil {
						t.Fatal(err)
					}
				}
			}
			n := &naiveRegs{valid: make([][]bool, m.cfg.B), landing: map[int][]int{}}
			for b := range n.valid {
				n.valid[b] = make([]bool, m.cfg.R)
			}
			w := m.cfg.Wiring()
			for i, in := range c.Prog.Instrs {
				n.issue(m.cfg, w, in, m.walk.Cycle())
				n.land(m.walk.Cycle())
				if err := m.walk.Step(in); err != nil {
					t.Fatalf("instruction %d: %v", i, err)
				}
				checkRegs(t, m, n, m.walk.Cycle())
			}
			// The drain: cycles that issue nothing.
			for d := 0; d < m.cfg.D+1; d++ {
				n.land(m.walk.Cycle())
				if err := m.walk.Step(&arch.Instr{Kind: arch.KindNop}); err != nil {
					t.Fatal(err)
				}
				checkRegs(t, m, n, m.walk.Cycle())
			}
			if len(n.landing) != 0 {
				t.Fatalf("writes still in flight after the drain: %v", n.landing)
			}
		})
	}
}

// TestMachineRunNoAllocsSteadyState asserts the hot path is allocation
// free: once a Machine exists, stepping instructions must not allocate.
func TestMachineRunNoAllocsSteadyState(t *testing.T) {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 16, Interior: 300, MaxArgs: 3, MulFrac: 0.5, Seed: 44})
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		m := NewMachine(c.Prog.Cfg, c.Prog.InitMem)
		for i, w := range c.InputWord {
			if w >= 0 {
				m.SetMem(w, float64(i))
			}
		}
		if err := m.Run(c.Prog); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up
	perRun := testing.AllocsPerRun(10, run)
	// Everything left is Machine construction (a fixed count independent
	// of program length); the per-instruction loop itself contributes
	// nothing. The seed allocated 5 slices per exec instruction, putting
	// this in the hundreds.
	limit := float64(30)
	if perRun > limit {
		t.Errorf("Machine construction+run allocates %.0f times, want <= %.0f", perRun, limit)
	}
}
