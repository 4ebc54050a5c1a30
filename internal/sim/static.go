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
//     landing rules. A path of l interior nodes takes at least
//     k = ⌈l/D⌉ dependent execs; the first reads a loaded leaf (a load
//     issued at t is readable from t+2), each later one reads its
//     producer's result (an exec issued at t is readable from t+D+1),
//     and the path's sink reaches data memory through a store issued no
//     earlier than D+1 after the last exec. The store is instruction
//     2 + k(D+1) at the earliest, so the stream holds k(D+1)+3 of them.
//
// Cycles is max(Ops+Leaves, Latency) plus the D+1 drain, the form
// Stats.Cycles takes. A compiled program below it is a compiler or
// simulator bug.
type Bound struct {
	Ops, Leaves, Latency int
	Cycles               int
}

// LowerBound returns the Bound of g (binarized, as Compiled.Graph is) on
// cfg.
func LowerBound(g *dag.Graph, cfg arch.Config) Bound {
	cfg = cfg.Normalize()
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
		b.Latency = ceilDiv(int(longest), cfg.D)*(cfg.D+1) + 3
	}
	b.Cycles = max(b.Ops+b.Leaves, b.Latency) + cfg.D + 1
	return b
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
