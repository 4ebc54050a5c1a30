package sim

import (
	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// StaticStats returns the statistics a Machine would report after
// running p, computed from the instruction stream alone: no machine, no
// input values, no register-allocation replay. The datapath is fully
// static — one instruction issues per cycle, every write lands at a
// fixed latency, and the compiler removes all hazards (§II-A, §IV-D) —
// so how often each resource is touched is a property of the program,
// not of a run. The per-kind rules mirror regfile.Walker:
//
//   - every instruction takes one cycle; the pipeline drain adds
//     arch.Config.Drain;
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
	cfg := p.Cfg
	perTree, leaves := (1<<uint(cfg.D))-1, 1<<uint(cfg.D-1)
	st := Stats{Cycles: len(p.Instrs) + cfg.Drain()}
	for i := range p.Instrs {
		in := &p.Instrs[i]
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
			for _, bc := range in.Banks {
				if bc.WriteEn {
					st.RegWrites++
				}
			}
		case arch.KindLoad:
			for _, en := range in.Mask {
				if en {
					st.MemReads++
					st.RegWrites++
				}
			}
		case arch.KindStore:
			for _, bc := range in.Banks {
				if bc.ReadEn {
					st.RegReads++
					st.MemWrites++
				}
			}
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

// Bound is a lower bound on the cycles of any program that computes a
// graph on a configuration, from three terms counted in issue slots (one
// instruction issues per cycle):
//
//   - Ops: ⌈interior nodes / NumPEs⌉ execs, since an exec performs at
//     most one operation per PE;
//   - Leaves: ⌈leaves an interior node reads / B⌉ loads, since such a
//     leaf reaches the register file only through a load lane and a
//     load fills at most B of them;
//   - Latency: the slots the longest path needs under the walker's
//     landing rules (arch.Config.WriteLatency). A path of l interior
//     nodes takes at least k = ⌈l/D⌉ dependent execs; the first reads a
//     loaded leaf (a load issued at t is readable from t+2), each later
//     one reads its producer's result (an exec issued at t is readable
//     from t+D+1), and the path's sink reaches data memory through a
//     store issued no earlier than D+1 after the last exec. The store is
//     instruction 2 + k(D+1) at the earliest, so the stream holds
//     k(D+1)+3 of them.
//
// Cycles is max(Ops+Leaves, Latency) plus the drain
// (arch.Config.Drain), the form Stats.Cycles takes. A compiled program below it is a compiler or
// simulator bug.
type Bound struct {
	Ops, Leaves, Latency int
	Cycles               int
}

// LowerBound returns the Bound of g (binarized, as Compiled.Graph is) on
// cfg.
func LowerBound(g *dag.Graph, cfg arch.Config) Bound {
	read := make([]bool, g.NumNodes())
	chain := make([]int32, g.NumNodes()) // interior nodes on the longest path ending here
	interior, leaves, longest := 0, 0, int32(0)
	for i := 0; i < g.NumNodes(); i++ {
		id := dag.NodeID(i)
		if g.Op(id).IsLeaf() {
			continue
		}
		interior++
		c := int32(0)
		for _, a := range g.Args(id) {
			if g.Op(a).IsLeaf() {
				if !read[a] {
					read[a] = true
					leaves++
				}
			} else {
				c = max(c, chain[a])
			}
		}
		chain[i] = c + 1
		longest = max(longest, c+1)
	}
	b := Bound{
		Ops:    ceilDiv(interior, cfg.NumPEs()),
		Leaves: ceilDiv(leaves, cfg.B),
	}
	if longest > 0 {
		// Issue slots from the first load to the store, inclusive.
		loadGap, execGap := cfg.WriteLatency(arch.KindLoad)+1, cfg.WriteLatency(arch.KindExec)+1
		b.Latency = loadGap + ceilDiv(int(longest), cfg.D)*execGap + 1
	}
	b.Cycles = max(b.Ops+b.Leaves, b.Latency) + cfg.Drain()
	return b
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
