package regfile_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/regfile"
)

// recorder walks the way the verifier does: every hazard is recorded and
// the walk continues. Each write carries the cycle it issued at.
type recorder struct {
	w       *regfile.Walker[int]
	hazards []regfile.Hazard[int]
}

func (r *recorder) Op(arch.PEOp, int, int) int { return r.w.Cycle() }
func (r *recorder) Load(int) (int, error)      { return r.w.Cycle(), nil }
func (r *recorder) Store(int, int) error       { return nil }
func (r *recorder) Hazard(h regfile.Hazard[int]) error {
	r.hazards = append(r.hazards, h)
	return nil
}

// walk runs instrs through the drain and returns the hazards in order.
func walk(t *testing.T, cfg arch.Config, instrs ...*arch.Instr) []regfile.Hazard[int] {
	t.Helper()
	r := &recorder{}
	r.w = regfile.NewWalker[int](cfg, r)
	for _, in := range instrs {
		if err := in.Validate(cfg); err != nil {
			t.Fatal(err)
		}
		if err := r.w.Step(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.w.Drain(); err != nil {
		t.Fatal(err)
	}
	return r.hazards
}

func kinds(hs []regfile.Hazard[int]) []regfile.HazardKind {
	ks := make([]regfile.HazardKind, len(hs))
	for i, h := range hs {
		ks[i] = h.Kind
	}
	return ks
}

// TestWalkerHazards builds one small program per hazard kind and checks
// the walker reports exactly that kind, then keeps going.
func TestWalkerHazards(t *testing.T) {
	cfg := arch.Config{D: 2, B: 4, R: 2, Output: arch.OutCrossbar}.Normalize()
	nop := &arch.Instr{Kind: arch.KindNop}
	var b arch.Builder
	load := func(lanes ...int) *arch.Instr {
		in := b.Load(cfg, 0)
		for _, l := range lanes {
			in.Mask[l] = true
		}
		return &in
	}
	// add reads banks 0 and 1 through leaf PE 0 and writes the root's
	// bypass of it to bank 0 (PE 2 is tree 0's root).
	add := func(rst bool) *arch.Instr {
		in := b.Exec(cfg)
		in.PEOps[0], in.PEOps[2] = arch.PEAdd, arch.PEBypassL
		in.Banks[0] = arch.BankCtl{ReadEn: true, ValidRst: rst, WriteEn: true, WriteSel: 2}
		in.Banks[1] = arch.BankCtl{ReadEn: true, InputSel: 1}
		return &in
	}
	moves := func(kind arch.Kind, mv ...arch.Move) *arch.Instr {
		return &arch.Instr{Kind: kind, Moves: mv}
	}
	cases := []struct {
		name   string
		instrs []*arch.Instr
		want   []regfile.HazardKind
	}{
		{"clean", []*arch.Instr{load(0, 1), nop, add(false)}, nil},
		{"unwritten", []*arch.Instr{add(false)},
			[]regfile.HazardKind{regfile.UninitRead, regfile.UninitRead}},
		{"freed", []*arch.Instr{load(0, 1), nop, add(true), add(false)},
			[]regfile.HazardKind{regfile.UninitRead}},
		{"overflow", []*arch.Instr{load(0), load(0), load(0)},
			[]regfile.HazardKind{regfile.BankOverflow}},
		{"conflict", []*arch.Instr{load(0, 1), nop, moves(arch.KindCopy, arch.Move{SrcBank: 0, Dst: 3}, arch.Move{SrcBank: 1, Dst: 3})},
			[]regfile.HazardKind{regfile.WriteConflict}},
		{"unread-port", []*arch.Instr{load(0, 1), nop, func() *arch.Instr { in := add(false); in.Banks[1].ReadEn = false; return in }()},
			[]regfile.HazardKind{regfile.DeadOperand}},
		{"dead-operand", []*arch.Instr{func() *arch.Instr { in := b.Exec(cfg); in.PEOps[2] = arch.PEAdd; return &in }()},
			[]regfile.HazardKind{regfile.DeadOperand}},
		{"idle-write", []*arch.Instr{func() *arch.Instr { in := b.Exec(cfg); in.Banks[1].WriteEn, in.Banks[1].WriteSel = true, 2; return &in }()},
			[]regfile.HazardKind{regfile.DeadOperand}},
		{"double-read", []*arch.Instr{load(0), nop, moves(arch.KindStore4, arch.Move{SrcBank: 0}, arch.Move{SrcBank: 0, Dst: 1})},
			[]regfile.HazardKind{regfile.DoubleRead}},
		{"dead-reset", []*arch.Instr{func() *arch.Instr { in := b.Exec(cfg); in.Banks[3].ValidRst = true; return &in }()},
			[]regfile.HazardKind{regfile.DeadReset}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := kinds(walk(t, cfg, tc.instrs...)); !slices.Equal(got, tc.want) {
				t.Errorf("hazards %v, want %v", got, tc.want)
			}
		})
	}
}

// TestWalkerPayloads pins where hazards anchor: an overflow names the
// write it drops, a conflict the write already landing, and a copy lands
// a payload of its own issue cycle, not the one it read.
func TestWalkerPayloads(t *testing.T) {
	cfg := arch.Config{D: 1, B: 2, R: 1, Output: arch.OutCrossbar}.Normalize()
	nop := &arch.Instr{Kind: arch.KindNop}
	var b arch.Builder
	ld := b.Load(cfg, 0)
	ld.Mask[0] = true
	cp := &arch.Instr{Kind: arch.KindCopy, Moves: []arch.Move{{SrcBank: 0, Dst: 1}}}
	hs := walk(t, cfg, &ld, nop, cp, &ld, cp)
	want := []regfile.Hazard[int]{
		// Cycle 3's load finds bank 0 still full: the copy read it
		// without valid_rst.
		{Kind: regfile.BankOverflow, Bank: 0, PE: -1, Payload: 3, Msg: "bank 0 overflows at cycle 4 (all 1 registers live)"},
		// Cycle 4's copy lands on bank 1, which cycle 2's copy filled.
		{Kind: regfile.BankOverflow, Bank: 1, PE: -1, Payload: 4, Msg: "bank 1 overflows at cycle 5 (all 1 registers live)"},
	}
	if !reflect.DeepEqual(hs, want) {
		t.Fatalf("hazards %+v, want %+v", hs, want)
	}

	// D=2: an exec issued at cycle 2 and a load issued at cycle 3 both
	// land on bank 0 at the end of cycle 4.
	cfg = arch.Config{D: 2, B: 4, R: 2, Output: arch.OutCrossbar}.Normalize()
	ld = b.Load(cfg, 0)
	ld.Mask[0], ld.Mask[1] = true, true
	ex := b.Exec(cfg)
	ex.PEOps[0], ex.PEOps[2] = arch.PEAdd, arch.PEBypassL
	ex.Banks[0] = arch.BankCtl{ReadEn: true, ValidRst: true, WriteEn: true, WriteSel: 2}
	ex.Banks[1] = arch.BankCtl{ReadEn: true, ValidRst: true, InputSel: 1}
	ld0 := b.Load(cfg, 0)
	ld0.Mask[0] = true
	hs = walk(t, cfg, &ld, nop, &ex, &ld0)
	want = []regfile.Hazard[int]{{Kind: regfile.WriteConflict, Bank: 0, PE: -1, Payload: 2, Msg: "two writes land on bank 0 at cycle 4"}}
	if !reflect.DeepEqual(hs, want) {
		t.Fatalf("hazards %+v, want %+v", hs, want)
	}
}

// failFast walks the way the machine does: the first hazard stops it.
type failFast struct{}

var errHazard = errors.New("hazard")

func (failFast) Op(arch.PEOp, float64, float64) float64 { return 0 }
func (failFast) Load(int) (float64, error)              { return 0, nil }
func (failFast) Store(int, float64) error               { return nil }
func (failFast) Hazard(regfile.Hazard[float64]) error   { return errHazard }

func TestWalkerStopsOnHazardError(t *testing.T) {
	cfg := arch.Config{D: 1, B: 2, R: 1, Output: arch.OutCrossbar}.Normalize()
	var b arch.Builder
	ld := b.Load(cfg, 0)
	ld.Mask[0] = true
	w := regfile.NewWalker[float64](cfg, failFast{})
	for _, in := range []*arch.Instr{&ld, &ld} {
		if err := w.Step(in); err != nil {
			t.Fatalf("cycle %d: %v before any landing overflowed", w.Cycle(), err)
		}
	}
	if err := w.Drain(); !errors.Is(err, errHazard) {
		t.Fatalf("drain = %v, want the overflow's error", err)
	}
	if _, writes := w.Traffic(); writes != 1 {
		t.Errorf("%d writes landed, want 1", writes)
	}
}

// TestOccupancyTraceAndPeak walks a compiled program for occupancy
// alone: one sample per cycle, drain included, and a peak that is
// positive and never past R.
func TestOccupancyTraceAndPeak(t *testing.T) {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 16, Interior: 200, MaxArgs: 3, MulFrac: 0.5, Seed: 23})
	cfg := arch.Config{D: 2, B: 8, R: 32}
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	samples, peak := 0, 0
	err = regfile.Occupancy(c.Prog, func(cycle int, perBank []int) {
		if cycle != samples {
			t.Fatalf("sample for cycle %d, want %d", cycle, samples)
		}
		samples++
		for b, occ := range perBank {
			if occ < 0 || occ > cfg.R {
				t.Fatalf("bank %d occupancy %d out of range", b, occ)
			}
			peak = max(peak, occ)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples != c.Stats.Cycles {
		t.Fatalf("trace saw %d cycles, the program takes %d", samples, c.Stats.Cycles)
	}
	if peak == 0 {
		t.Fatal("no register was ever occupied")
	}
}
