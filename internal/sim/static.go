package sim

import "dpuv2/internal/arch"

// StaticStats returns the statistics a Machine would report after
// running p, computed from the instruction stream alone: no machine, no
// input values, no register-allocation replay. The datapath is fully
// static — one instruction issues per cycle, every write lands at a
// fixed latency, and the compiler removes all hazards (§II-A, §IV-D) —
// so how often each resource is touched is a property of the program,
// not of a run. The per-kind rules mirror regfile.Walker:
//
//   - every instruction counts under its kind and takes one cycle; the
//     pipeline drain adds D+1;
//   - exec: each non-idle leaf PE reads one register per operand it
//     consumes (two for add/mul, one for a bypass; a port is owned by
//     exactly one leaf PE), each add/mul anywhere in the trees is one
//     PE operation, each write-enabled bank lands one register write;
//   - load: each masked lane reads one memory word and lands one
//     register write;
//   - store: each read-enabled bank reads one register and writes one
//     memory word; store_4 and copy_4 read one register per move and
//     write one memory word or one register respectively.
//
// The result equals Machine.Stats on any program that passes
// internal/verify (and so runs to completion: a machine that faults
// mid-program has counted only a prefix).
func StaticStats(p *arch.Program) Stats {
	cfg := p.Cfg.Normalize()
	perTree, leaves := (1<<uint(cfg.D))-1, 1<<uint(cfg.D-1)
	st := Stats{
		Cycles: len(p.Instrs) + cfg.D + 1,
		Instrs: make(map[arch.Kind]int),
	}
	for _, in := range p.Instrs {
		st.Instrs[in.Kind]++
		switch in.Kind {
		case arch.KindExec:
			for id, op := range in.PEOps {
				arith := op == arch.PEAdd || op == arch.PEMul
				if arith {
					st.PEOpsDone++
				}
				if id%perTree < leaves && op != arch.PEIdle {
					st.RegReads++
					if arith {
						st.RegReads++
					}
				}
			}
			st.RegWrites += countTrue(in.WriteEn)
		case arch.KindLoad:
			n := countTrue(in.Mask)
			st.MemReads += n
			st.RegWrites += n
		case arch.KindStore:
			n := countTrue(in.ReadEn)
			st.RegReads += n
			st.MemWrites += n
		case arch.KindStore4:
			st.RegReads += len(in.Moves)
			st.MemWrites += len(in.Moves)
		case arch.KindCopy:
			st.RegReads += len(in.Moves)
			st.RegWrites += len(in.Moves)
		}
	}
	return st
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
