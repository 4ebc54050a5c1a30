package compiler

import (
	"math"

	"dpuv2/internal/arch"
)

// Step 3 — pipeline-aware reordering (§IV-C). The datapath has D+1
// pipeline stages, so an instruction consuming a value must issue after
// the cycle its producer's write lands in (arch.Config.WriteLatency):
// D+1 cycles after an exec, 2 after a load or copy. Each register bank
// also has one write port, so at most one write may land on a bank per
// cycle: a load's writes land on its leaves' home banks, a copy's on its
// moves' destinations and an exec's on its outBanks. The draft list is
// re-scheduled greedily: at each cycle the earliest op within a fixed
// window (300 in the paper; Plan reorders every draft under
// reorderWindow and shortWindow and keeps the shorter program) issues
// whose operands have landed and whose writes land on banks no issued
// write lands on in the same cycle; when nothing is ready a nil slot (a
// nop) is emitted. On a draft that needs no spill this schedule is the
// program, nop for nop; step 4 stalls only around the spill stores and
// reloads it inserts.
//
// This pass can only hoist loads, copies and *independent* execs into an
// exec's latency shadow; it cannot shorten a chain of dependent execs.
// Whether independent execs exist within the window is decided earlier,
// by how step 1b (schedule.go) bins cones into blocks.

// portMark is one slot of reorder's landing ring: the banks written at
// cycle at.
type portMark struct {
	at    int32
	banks uint64
}

// reorderOp is what reorder keeps of one draft op while it schedules.
type reorderOp struct {
	wmask uint64 // the banks the op writes; B ≤ 64 (bankAlloc)
	lat   int32  // cfg.WriteLatency of its kind
	land  int32  // the cycle its writes land; unissued until it issues
	// ready is the cycle after the last landing among the producers of
	// its first seen reads: reorder looks at each read until its
	// producer has issued, and not again.
	ready, seen int32
}

const unissued int32 = math.MaxInt32

// reorder returns the scheduled op list where nil entries are nops; vals
// is the draft's value table (a load writes its leaves' home banks).
// prod, rops and ring are its per-value, per-op and per-cycle arrays,
// reused.
func (sc *planScratch) reorder(ops []*draftOp, vals []valInfo, cfg arch.Config, window int) []*draftOp {
	sc.prod = resize(sc.prod, len(vals))
	prod := sc.prod
	for i := range prod {
		prod[i] = -1
	}
	sc.rops = resize(sc.rops, len(ops))
	rops := sc.rops
	for i, op := range ops {
		r := &rops[i]
		r.lat, r.land = int32(cfg.WriteLatency(op.kind)), unissued
		for _, w := range op.wrs {
			if w != InvalidVal {
				prod[w] = int32(i)
			}
		}
		switch op.kind {
		case dLoad:
			for _, w := range op.wrs {
				r.wmask |= 1 << uint(vals[w].bank)
			}
		case dCopy:
			for _, m := range op.moves {
				r.wmask |= 1 << uint(m.dst)
			}
		case dExec:
			for _, b := range op.outBank {
				r.wmask |= 1 << uint(b)
			}
		}
	}
	// The ring holds the banks written at each of the cycles a write
	// issued now or earlier can still land in; a slot whose tag is not
	// the cycle asked about is empty.
	sc.ring = resize(sc.ring, cfg.Drain()+1)
	ring := sc.ring
	for i := range ring {
		ring[i].at = -1
	}
	// ready reports whether op j may issue at pos: its operands have
	// landed, and no issued write lands on one of its banks when its
	// own writes do.
	ready := func(j int, pos int32) bool {
		r := &rops[j]
		for reads := ops[j].reads; int(r.seen) < len(reads); r.seen++ {
			if p := prod[reads[r.seen]]; p >= 0 {
				if rops[p].land == unissued {
					return false
				}
				r.ready = max(r.ready, rops[p].land+1)
			}
		}
		if r.ready > pos {
			return false
		}
		at := pos + r.lat
		s := &ring[int(at)%len(ring)]
		return s.at != at || s.banks&r.wmask == 0
	}
	out := make([]*draftOp, 0, len(ops)+len(ops)/2)
	scheduled := 0
	lo := 0
	pos := int32(0)
	for scheduled < len(ops) {
		issued := false
		hi := lo + window
		if hi > len(ops) {
			hi = len(ops)
		}
		for j := lo; j < hi; j++ {
			if rops[j].land != unissued || !ready(j, pos) {
				continue
			}
			r := &rops[j]
			r.land = pos + r.lat
			if r.wmask != 0 {
				s := &ring[int(r.land)%len(ring)]
				if s.at != r.land {
					*s = portMark{at: r.land}
				}
				s.banks |= r.wmask
			}
			out = append(out, ops[j])
			scheduled++
			issued = true
			for lo < len(ops) && rops[lo].land != unissued {
				lo++
			}
			break
		}
		if !issued {
			out = append(out, nil) // nop
		}
		pos++
	}
	return out
}
