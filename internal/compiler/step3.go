package compiler

// Step 3 — pipeline-aware reordering (§IV-C). The datapath has D+1
// pipeline stages, so an instruction consuming a value must issue at
// least gap(producer) cycles after its producer: D+1 for exec results,
// 2 for loads and copies (one-cycle writeback). The draft list is
// re-scheduled greedily: at each cycle the earliest ready op within a
// fixed window (300 in the paper) issues; when nothing is ready a nil
// slot (a nop) is emitted. Step 4 re-validates all gaps after it inserts
// spill traffic, so this pass is purely a latency optimization.
//
// This pass can only hoist loads, copies and *independent* execs into an
// exec's latency shadow; it cannot shorten a chain of dependent execs.
// Whether independent execs exist within the window is decided earlier,
// by how step 1b (schedule.go) bins cones into blocks.

func gapOf(k draftKind, d int) int32 {
	switch k {
	case dExec:
		return int32(d + 1)
	case dLoad, dCopy:
		return 2
	default:
		return 1
	}
}

// reorder returns the scheduled op list where nil entries are nops.
func reorder(ops []*draftOp, nvals int, depth, window int) []*draftOp {
	prod := make([]int32, nvals)
	for i := range prod {
		prod[i] = -1
	}
	for i, op := range ops {
		for _, w := range op.wrs {
			if w != InvalidVal {
				prod[w] = int32(i)
			}
		}
	}
	posOf := make([]int32, len(ops))
	for i := range posOf {
		posOf[i] = -1
	}
	ready := func(j int, pos int32) bool {
		for _, v := range ops[j].reads {
			p := prod[v]
			if p < 0 {
				continue
			}
			if posOf[p] < 0 || posOf[p]+gapOf(ops[p].kind, depth) > pos {
				return false
			}
		}
		return true
	}
	var out []*draftOp
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
			if posOf[j] >= 0 {
				continue
			}
			if !ready(j, pos) {
				continue
			}
			posOf[j] = pos
			out = append(out, ops[j])
			scheduled++
			issued = true
			for lo < len(ops) && posOf[lo] >= 0 {
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
