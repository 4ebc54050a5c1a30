package arch

import (
	"strings"
	"testing"
)

func TestDisassembleKinds(t *testing.T) {
	cfg := Config{D: 2, B: 8, R: 16}.Normalize()
	if got := Disassemble(&Instr{Kind: KindNop}, cfg); got != "nop" {
		t.Errorf("nop = %q", got)
	}
	var b Builder
	ld := b.Load(cfg, 7)
	ld.Mask[1], ld.Mask[5] = true, true
	if got := Disassemble(&ld, cfg); got != "load row=7 lanes[1,5]" {
		t.Errorf("load = %q", got)
	}
	cp := &Instr{Kind: KindCopy, Moves: []Move{{SrcBank: 3, SrcAddr: 7, Dst: 5, Rst: true}}}
	if got := Disassemble(cp, cfg); got != "copy_4 b3.7!->5" {
		t.Errorf("copy = %q", got)
	}
	st := b.Store(cfg, 2)
	st.Banks[0] = BankCtl{ReadEn: true, ReadAddr: 3, ValidRst: true}
	st.Banks[4] = BankCtl{ReadEn: true, ReadAddr: 1}
	if got := Disassemble(&st, cfg); got != "store row=2 reads[b0.3! b4.1]" {
		t.Errorf("store = %q", got)
	}
	ex := b.Exec(cfg)
	ex.PEOps[0] = PEMul
	ex.Banks[2] = BankCtl{ReadEn: true, ReadAddr: 9}
	sel, _ := cfg.WriteSel(0, PE{Tree: 0, Layer: 1, Index: 0})
	ex.Banks[0] = BankCtl{WriteEn: true, WriteSel: sel}
	if got, want := Disassemble(&ex, cfg), "exec reads[b2.9] pe[t0.l1.0:mul] writes[b0<-t0.l1.0]"; got != want {
		t.Errorf("exec = %q, want %q", got, want)
	}
}

func TestDisassembleProgramOffsets(t *testing.T) {
	cfg := Config{D: 2, B: 8, R: 16}.Normalize()
	var b Builder
	b.Append(Instr{Kind: KindNop})
	ld := b.Load(cfg, 0)
	ld.Mask[0] = true
	b.Append(ld)
	out := DisassembleProgram(mustProgram(t, &b, cfg))
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
