package verify_test

import (
	"encoding/json"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/verify"
)

// goodCompiled builds a known-good compiled program for the mutation
// tests. Each subtest compiles its own copy so mutations cannot leak.
func goodCompiled(t *testing.T) *compiler.Compiled {
	t.Helper()
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 8, Interior: 80, MaxArgs: 2, MulFrac: 0.5, Seed: 7})
	cfg := arch.Config{D: 2, B: 8, R: 16, Output: arch.OutCrossbar}
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if fs := verify.Compiled(c); verify.HasErrors(fs) {
		t.Fatalf("baseline program is not clean: %s", verify.Summary(fs))
	}
	return c
}

// requireClass asserts that the findings contain at least one
// error-severity finding of the given class — the "exact finding class
// per mutation" acceptance criterion.
func requireClass(t *testing.T, fs []verify.Finding, want verify.Class) {
	t.Helper()
	for _, f := range fs {
		if f.Sev == verify.SevError && f.Class == want {
			return
		}
	}
	for _, f := range fs {
		t.Logf("  %s", f)
	}
	t.Fatalf("no %s error finding (got %d findings)", want, len(fs))
}

// firstExec returns the index of the first exec instruction with at
// least one active leaf PE (so it demonstrably reads registers).
func firstExec(t *testing.T, c *compiler.Compiled) int {
	t.Helper()
	cfg := c.Prog.Cfg
	for i, in := range c.Prog.Instrs {
		if in.Kind != arch.KindExec {
			continue
		}
		for id, op := range in.PEOps {
			if op != arch.PEIdle && cfg.PECoord(id).Layer == 1 {
				return i
			}
		}
	}
	t.Fatal("no exec instruction with an active leaf PE")
	return -1
}

// streamMutations are the TestMutationClasses corruptions whose hazard
// lives in the instruction stream; TestMachineAgreesWithVerifier runs
// each on the machine too.
var streamMutations = []struct {
	name   string
	class  verify.Class
	mutate func(t *testing.T, c *compiler.Compiled)
}{
	{"swap-exec-before-loads", verify.ClassUninitRead, func(t *testing.T, c *compiler.Compiled) {
		// Reordering the schedule breaks def-before-use: an exec issued at
		// pc 0 reads registers no load has written yet.
		i := firstExec(t, c)
		c.Prog.Instrs[0], c.Prog.Instrs[i] = c.Prog.Instrs[i], c.Prog.Instrs[0]
	}},
	{"store-row-out-of-bounds", verify.ClassMemBounds, func(t *testing.T, c *compiler.Compiled) {
		cfg := c.Prog.Cfg
		for _, in := range c.Prog.Instrs {
			if in.Kind == arch.KindStore || in.Kind == arch.KindStore4 {
				in.MemAddr = cfg.DataMemWords / cfg.B
				return
			}
		}
		t.Fatal("no store instruction to mutate")
	}},
	{"read-enable-cleared", verify.ClassDeadOperand, func(t *testing.T, c *compiler.Compiled) {
		// Clearing a read enable under an active port starves the PE: the
		// crossbar routes a bank nothing drives this cycle.
		cfg := c.Prog.Cfg
		in := c.Prog.Instrs[firstExec(t, c)]
		port := -1
		for id, op := range in.PEOps {
			p := cfg.PECoord(id)
			if op == arch.PEIdle || p.Layer != 1 {
				continue
			}
			l, r := cfg.InputPorts(p)
			if op == arch.PEBypassR {
				port = r
			} else {
				port = l
			}
			break
		}
		in.ReadEn[in.InputSel[port]] = false
	}},
}

// TestMutationClasses corrupts a known-good program one way at a time
// and asserts the verifier rejects each corruption with the finding
// class that names the actual hazard.
func TestMutationClasses(t *testing.T) {
	for _, m := range streamMutations {
		t.Run(m.name, func(t *testing.T) {
			c := goodCompiled(t)
			m.mutate(t, c)
			requireClass(t, verify.Compiled(c), m.class)
		})
	}

	t.Run("read-addr-past-R", func(t *testing.T) {
		c := goodCompiled(t)
		in := c.Prog.Instrs[firstExec(t, c)]
		for b, en := range in.ReadEn {
			if en {
				in.ReadAddr[b] = uint16(c.Prog.Cfg.R)
				break
			}
		}
		requireClass(t, verify.Compiled(c), verify.ClassResource)
	})

	t.Run("output-word-out-of-range", func(t *testing.T) {
		c := goodCompiled(t)
		sink := c.Graph.Outputs()[0]
		c.OutputWord[sink] = c.Prog.Cfg.DataMemWords
		requireClass(t, verify.Compiled(c), verify.ClassMapping)
	})

	t.Run("output-word-never-written", func(t *testing.T) {
		c := goodCompiled(t)
		sink := c.Graph.Outputs()[0]
		w := c.Prog.Cfg.DataMemWords - 1
		if w < len(c.Prog.InitMem) {
			t.Fatal("picked word is inside the init image")
		}
		c.OutputWord[sink] = w
		requireClass(t, verify.Compiled(c), verify.ClassMapping)
	})

	t.Run("stats-cycles-halved", func(t *testing.T) {
		// A CRC-clean artifact can still lie about its cycle count, which
		// the engine reports to clients: exactly one stats-mismatch, and
		// the class survives the dpu-vet JSON round trip.
		c := goodCompiled(t)
		c.Stats.Cycles /= 2
		fs := verify.Compiled(c)
		if len(fs) != 1 || fs[0].Class != verify.ClassStatsMismatch || fs[0].Sev != verify.SevError {
			t.Fatalf("want exactly one stats-mismatch error, got %v", fs)
		}
		b, err := json.Marshal(fs[0])
		if err != nil {
			t.Fatal(err)
		}
		var back verify.Finding
		if err := json.Unmarshal(b, &back); err != nil || back != fs[0] {
			t.Fatalf("JSON round trip: %s → %+v (%v)", b, back, err)
		}
	})

	t.Run("crossbar-write-sel-past-numpes", func(t *testing.T) {
		// A decoded crossbar write select can name any value its bit width
		// admits; one past NumPEs would index the simulator's liveness
		// array out of range. Both Validate and the verifier must reject
		// it.
		cfg := arch.Config{D: 2, B: 4, R: 4, Output: arch.OutCrossbar}.Normalize()
		in := arch.NewExec(cfg)
		in.WriteEn[0] = true
		in.WriteSel[0] = uint16(cfg.NumPEs())
		if err := in.Validate(cfg); err == nil {
			t.Error("Validate accepted a write select past NumPEs")
		}
		p := &arch.Program{Cfg: cfg, Instrs: []*arch.Instr{in}}
		requireClass(t, verify.Program(p, cfg), verify.ClassResource)
	})
}

// TestSyntheticHazards hand-builds programs around the two hazards a
// single-instruction mutation cannot easily reach — landing-write
// conflicts and bank overflow — plus the free-list discipline cases.
func TestSyntheticHazards(t *testing.T) {
	t.Run("write-conflict", func(t *testing.T) {
		p := writeConflictProgram()
		requireClass(t, verify.Program(p, p.Cfg), verify.ClassWriteConflict)
	})

	t.Run("bank-overflow", func(t *testing.T) {
		p := bankOverflowProgram()
		requireClass(t, verify.Program(p, p.Cfg), verify.ClassBankOverflow)
	})

	t.Run("use-after-free", func(t *testing.T) {
		p := useAfterFreeProgram()
		fs := verify.Program(p, p.Cfg)
		requireClass(t, fs, verify.ClassUninitRead)
		found := false
		for _, f := range fs {
			if f.Class == verify.ClassUninitRead && f.PC == 3 {
				found = true
			}
		}
		if !found {
			t.Errorf("use-after-free not anchored to pc 3: %v", fs)
		}
	})

	t.Run("idle-pe-write", func(t *testing.T) {
		p := idlePEWriteProgram()
		requireClass(t, verify.Program(p, p.Cfg), verify.ClassDeadOperand)
	})

	t.Run("dead-reset-is-warning-only", func(t *testing.T) {
		p := deadResetProgram()
		fs := verify.Program(p, p.Cfg)
		if verify.HasErrors(fs) {
			t.Fatalf("dead reset must not be an error: %s", verify.Summary(fs))
		}
		if len(fs) == 0 || fs[0].Class != verify.ClassDeadReset {
			t.Fatalf("want a dead-reset warning, got %v", fs)
		}
	})
}

// writeConflictProgram lands two writes on bank 0 in one cycle.
// Timeline (D=2, ring latency exec=+2, load=+1):
//
//	pc0 load row0, all lanes     → lands end of cycle 1
//	pc1 nop                        (let the loads land)
//	pc2 exec, root writes bank 0 → lands cycle 4
//	pc3 load lane 0              → lands cycle 4: conflict
func writeConflictProgram() *arch.Program {
	cfg := arch.Config{D: 2, B: 4, R: 4, Output: arch.OutCrossbar}.Normalize()
	ld := arch.NewLoad(cfg, 0)
	for i := range ld.Mask {
		ld.Mask[i] = true
	}

	ex := arch.NewExec(cfg)
	ex.PEOps[0] = arch.PEAdd     // leaf PE 0 reads ports 0,1
	ex.PEOps[2] = arch.PEBypassL // root forwards the leaf's sum
	ex.ReadEn[0], ex.ReadEn[1] = true, true
	ex.InputSel[0], ex.InputSel[1] = 0, 1
	ex.WriteEn[0] = true
	ex.WriteSel[0] = 2 // root PE id

	ld2 := arch.NewLoad(cfg, 0)
	ld2.Mask[0] = true
	return validProgram(cfg, ld, &arch.Instr{Kind: arch.KindNop}, ex, ld2)
}

// bankOverflowProgram has R=2 and three full-row loads with no frees:
// the third landing write finds its bank full.
func bankOverflowProgram() *arch.Program {
	cfg := arch.Config{D: 1, B: 2, R: 2, Output: arch.OutCrossbar}.Normalize()
	var loads []*arch.Instr
	for i := 0; i < 3; i++ {
		ld := arch.NewLoad(cfg, 0)
		ld.Mask[0], ld.Mask[1] = true, true
		loads = append(loads, ld)
	}
	return validProgram(cfg, loads...)
}

// useAfterFreeProgram has an exec read bank 0 with valid_rst, freeing
// the register; the exec at pc 3 reads the same address again.
func useAfterFreeProgram() *arch.Program {
	cfg := arch.Config{D: 1, B: 2, R: 2, Output: arch.OutCrossbar}.Normalize()
	ld := arch.NewLoad(cfg, 0)
	ld.Mask[0], ld.Mask[1] = true, true

	ex := arch.NewExec(cfg)
	ex.PEOps[0] = arch.PEAdd
	ex.ReadEn[0], ex.ReadEn[1] = true, true
	ex.InputSel[0], ex.InputSel[1] = 0, 1
	ex.ValidRst[0] = true

	ex2 := arch.NewExec(cfg)
	ex2.PEOps[0] = arch.PEBypassL
	ex2.ReadEn[0] = true
	ex2.InputSel[0] = 0
	return validProgram(cfg, ld, &arch.Instr{Kind: arch.KindNop}, ex, ex2)
}

// validProgram is instrs on cfg, each checked by Program.Append: the
// fixtures above break only rules the structural check cannot see, so
// an instruction it rejects is a bug in the fixture.
func validProgram(cfg arch.Config, instrs ...*arch.Instr) *arch.Program {
	p := &arch.Program{Cfg: cfg}
	for _, in := range instrs {
		if err := p.Append(in); err != nil {
			panic(err)
		}
	}
	return p
}

// idlePEWriteProgram writes back the output of the only PE, left idle.
func idlePEWriteProgram() *arch.Program {
	cfg := arch.Config{D: 1, B: 2, R: 2, Output: arch.OutCrossbar}.Normalize()
	ex := arch.NewExec(cfg)
	ex.WriteEn[0] = true
	ex.WriteSel[0] = 0
	return &arch.Program{Cfg: cfg, Instrs: []*arch.Instr{ex}}
}

// deadResetProgram sets a valid_rst bit with no read anywhere: the bit
// frees nothing.
func deadResetProgram() *arch.Program {
	cfg := arch.Config{D: 1, B: 2, R: 2, Output: arch.OutCrossbar}.Normalize()
	ex := arch.NewExec(cfg)
	ex.ValidRst[0] = true
	return &arch.Program{Cfg: cfg, Instrs: []*arch.Instr{ex}}
}
