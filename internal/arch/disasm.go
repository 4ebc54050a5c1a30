package arch

import (
	"fmt"
	"strings"
)

// Disassemble renders one instruction as human-readable assembly, the
// debugging view of the packed stream. Formats:
//
//	nop
//	exec reads[b2.0 b6.3!] pe[t0.l1.0:add ...] writes[b9<-t0.l1.0 ...]
//	load row=12 lanes[0,4,5]
//	store row=3 reads[b0.1 b2.0!]
//	copy_4 b3.7!->5 b0.1->9
//
// "!" marks valid_rst (last read frees the register).
func Disassemble(in *Instr, cfg Config) string {
	var b strings.Builder
	switch in.Kind {
	case KindNop:
		return "nop"
	case KindExec:
		b.WriteString("exec ")
		writeReads(&b, in.Banks)
		b.WriteString(" pe[")
		sep := ""
		for id, op := range in.PEOps {
			if op == PEIdle {
				continue
			}
			p := cfg.PECoord(id)
			fmt.Fprintf(&b, "%st%d.l%d.%d:%s", sep, p.Tree, p.Layer, p.Index, op)
			sep = " "
		}
		b.WriteString("] writes[")
		sep = ""
		for bank, bc := range in.Banks {
			if !bc.WriteEn {
				continue
			}
			p := cfg.SelPE(bank, bc.WriteSel)
			fmt.Fprintf(&b, "%sb%d<-t%d.l%d.%d", sep, bank, p.Tree, p.Layer, p.Index)
			sep = " "
		}
		b.WriteString("]")
		return b.String()
	case KindLoad:
		var lanes []string
		for lane, en := range in.Mask {
			if en {
				lanes = append(lanes, fmt.Sprint(lane))
			}
		}
		return fmt.Sprintf("load row=%d lanes[%s]", in.MemAddr, strings.Join(lanes, ","))
	case KindStore:
		fmt.Fprintf(&b, "store row=%d ", in.MemAddr)
		writeReads(&b, in.Banks)
		return b.String()
	case KindStore4, KindCopy:
		var ms []string
		for _, m := range in.Moves {
			rst := ""
			if m.Rst {
				rst = "!"
			}
			ms = append(ms, fmt.Sprintf("b%d.%d%s->%d", m.SrcBank, m.SrcAddr, rst, m.Dst))
		}
		if in.Kind == KindStore4 {
			return fmt.Sprintf("store_4 row=%d %s", in.MemAddr, strings.Join(ms, " "))
		}
		return "copy_4 " + strings.Join(ms, " ")
	}
	return fmt.Sprintf("?kind(%d)", in.Kind)
}

// writeReads renders the enabled bank reads of an exec or a store.
func writeReads(b *strings.Builder, banks []BankCtl) {
	b.WriteString("reads[")
	sep := ""
	for bank, bc := range banks {
		if !bc.ReadEn {
			continue
		}
		fmt.Fprintf(b, "%sb%d.%d", sep, bank, bc.ReadAddr)
		if bc.ValidRst {
			b.WriteByte('!')
		}
		sep = " "
	}
	b.WriteByte(']')
}

// DisassembleProgram renders every instruction, one per line with its
// index and cumulative bit offset in the packed stream.
func DisassembleProgram(p *Program) string {
	var b strings.Builder
	off := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		fmt.Fprintf(&b, "%6d @%-8d %s\n", i, off, Disassemble(in, p.Cfg))
		off += p.W.Len(in.Kind)
	}
	return b.String()
}
