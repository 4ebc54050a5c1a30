package arch

import (
	"strings"
	"testing"
)

func TestDisassembleKinds(t *testing.T) {
	cfg := Config{D: 2, B: 8, R: 16, Output: OutPerLayer}.Normalize()
	if got := Disassemble(&Instr{Kind: KindNop}, cfg); got != "nop" {
		t.Errorf("nop = %q", got)
	}
	ld := NewLoad(cfg, 7)
	ld.Mask[1], ld.Mask[5] = true, true
	if got := Disassemble(ld, cfg); got != "load row=7 lanes[1,5]" {
		t.Errorf("load = %q", got)
	}
	cp := &Instr{Kind: KindCopy, Moves: []Move{{SrcBank: 3, SrcAddr: 7, Dst: 5, Rst: true}}}
	if got := Disassemble(cp, cfg); got != "copy_4 b3.7!->5" {
		t.Errorf("copy = %q", got)
	}
	st := NewStore(cfg, 2)
	st.ReadEn[0] = true
	st.ReadAddr[0] = 3
	st.ValidRst[0] = true
	if got := Disassemble(st, cfg); !strings.Contains(got, "b0.3!") {
		t.Errorf("store = %q", got)
	}
	ex := NewExec(cfg)
	ex.PEOps[0] = PEMul
	ex.ReadEn[2] = true
	ex.ReadAddr[2] = 9
	ex.WriteEn[0] = true
	sel, _ := cfg.WriteSel(0, PE{Tree: 0, Layer: 1, Index: 0})
	ex.WriteSel[0] = sel
	got := Disassemble(ex, cfg)
	for _, want := range []string{"exec", "b2.9", "t0.l1.0:mul", "b0<-t0.l1.0"} {
		if !strings.Contains(got, want) {
			t.Errorf("exec disasm missing %q: %q", want, got)
		}
	}
}

func TestDisassembleProgramOffsets(t *testing.T) {
	cfg := Config{D: 2, B: 8, R: 16, Output: OutPerLayer}.Normalize()
	p := NewProgram(cfg)
	mustAppend(t, p, &Instr{Kind: KindNop})
	ld := NewLoad(cfg, 0)
	ld.Mask[0] = true
	mustAppend(t, p, ld)
	out := DisassembleProgram(p)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "@0") {
		t.Errorf("first instruction not at offset 0: %q", lines[0])
	}
	w := WidthsOf(cfg)
	if !strings.Contains(lines[1], "@"+itoa(w.Nop)) {
		t.Errorf("second offset should be %d: %q", w.Nop, lines[1])
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
