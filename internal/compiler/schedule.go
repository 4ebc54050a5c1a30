package compiler

import (
	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// Step 1b — pipeline-aware block formation.
//
// Step 1a (step1.go) cuts the DAG into cones in DFS order. Executed in
// that order the blocks form a single dependency chain — some cone of
// every block reads the block just emitted — so every exec waits the
// whole D+1-stage pipeline for its predecessor, step 3 finds nothing
// independent to hoist into the gap, and cycles ≈ (D+1)·blocks. Here the
// cone, not the block, is the scheduling unit: cone q depends on cone p
// iff q reads a node of p, and the blocks that are executed are formed by
// list scheduling over that graph. For block s the ready cones (every
// producer in a block < s) are taken, while subtree slots remain, in the
// order
//
//	(i)   cones whose producers all sit in blocks ≤ s−(D+1), whose
//	      operands have left the pipeline by the time exec s issues;
//	      then the rest, oldest latest-producer first;
//	(ii)  longest remaining path in the cone graph;
//	(iii) position in the DFS cut.
//
// A cone is a valid unit wherever it lands: its nodes and depth were fixed
// when it was cut, and it reads only leaves and nodes of producer cones,
// all of which execute in earlier blocks.

// coneWindow is how many DFS blocks past the oldest unplaced cone the
// scheduler may reach. The DFS order is what keeps a value's consumers
// close to its producer; scheduling the whole cone graph by critical path
// alone interleaves distant regions of the DAG, live ranges stretch, and
// spill traffic costs more than the broken chain saves (msnbc at scale
// 1.0, D=3/B=64/R=32: 14083 cycles and 1857 spill stores windowed, 19822
// and 4727 unwindowed, 16856 and 2908 in plain DFS order). Windows of 16
// to 64 blocks are within 2% of each other on the benchmark graphs, spills
// growing with the window; 4 finds too little independent work (tretail at
// scale 0.25: 266 cycles against 245).
const coneWindow = 16

// The search bounds of steps 1 and 3. reorderWindow is how many draft ops,
// from the oldest unissued one, step 3 searches for a ready op, the
// paper's setting (§IV-C), and shortWindow the second window Plan
// reorders every draft under: hoisting loads less far ahead, it keeps the
// row layout from spilling on the SpTRSV graphs, but as the only window
// it is slower on some grid points, so Emit keeps whichever program is
// shorter (DESIGN.md "Step 3: the reorder window"). seedLookahead is how
// many candidate roots step 1 weighs for a block's seed cone, and
// fillLookahead how many it may pass over while filling the block's other
// slots. Like coneWindow they are constants, not Options fields: Options
// is part of every program's content address.
const (
	reorderWindow = 300
	shortWindow   = 30
	seedLookahead = 16
	fillLookahead = 24
)

// coneSched is the list scheduler's state. All per-cone state is dense,
// indexed by the cone's position in the DFS cut.
type coneSched struct {
	lat int32 // exec latency in blocks: D+1
	// Cone graph in CSR form: the consumers of cone c are
	// succ[succOff[c]:succOff[c+1]].
	succOff []int32
	succ    []int32
	ndeps   []int32 // producers not yet in a closed block
	lastDep []int32 // latest block holding a producer (farBack if none)
	path    []int32 // cones on the longest path from this one to a sink
	// Ready cones. far holds those whose producers are ≥ D+1 blocks back
	// (key ii, iii); near the rest (key lastDep, ii, iii). Cones migrate
	// from near to far as blocks close.
	far, near idHeap

	// Arrays reused from one schedule to the next: the cone of each node,
	// the slab behind the per-cone arrays, and schedule's own.
	coneOf, slab              []int32
	placed                    []bool
	ends, issue, cur, misfits []int32
}

// farBack is the lastDep of a cone that reads only leaves.
const farBack = -1 << 30

func (cs *coneSched) byPath(a, b int32) bool {
	if cs.path[a] != cs.path[b] {
		return cs.path[a] > cs.path[b]
	}
	return a < b
}

func (cs *coneSched) byLastDep(a, b int32) bool {
	if cs.lastDep[a] != cs.lastDep[b] {
		return cs.lastDep[a] < cs.lastDep[b]
	}
	return cs.byPath(a, b)
}

// push queues ready cone c for block s.
func (cs *coneSched) push(c, s int32) {
	if cs.lastDep[c] <= s-cs.lat {
		cs.far.push(c)
	} else {
		cs.near.push(c)
	}
}

// pop returns the best ready cone for block s, or -1.
func (cs *coneSched) pop(s int32) int32 {
	for len(cs.near.items) > 0 && cs.lastDep[cs.near.items[0]] <= s-cs.lat {
		cs.far.push(cs.near.pop())
	}
	if len(cs.far.items) > 0 {
		return cs.far.pop()
	}
	if len(cs.near.items) > 0 {
		return cs.near.pop()
	}
	return -1
}

// buildConeGraph fills the CSR consumer lists, ndeps and path.
func (cs *coneSched) buildConeGraph(g *dag.Graph, cones []Subgraph) {
	nc := len(cones)
	cs.coneOf = resize(cs.coneOf, g.NumNodes())
	coneOf := cs.coneOf
	for i := range coneOf {
		coneOf[i] = -1
	}
	for c := range cones {
		for _, n := range cones[c].Nodes {
			coneOf[n] = int32(c)
		}
	}
	// One slab for the five per-cone arrays.
	cs.slab = resize(cs.slab, 5*nc+1)
	slab := cs.slab
	cs.succOff, slab = slab[:nc+1], slab[nc+1:]
	cs.ndeps, slab = slab[:nc], slab[nc:]
	cs.lastDep, slab = slab[:nc], slab[nc:]
	cs.path, slab = slab[:nc], slab[nc:]
	seen := slab // seen[p] == c+1: edge p→c already recorded

	// eachEdge calls f once per distinct (producer, consumer) pair, in
	// consumer order.
	eachEdge := func(f func(p, c int32)) {
		for c := range cones {
			for _, n := range cones[c].Nodes {
				for _, a := range g.Args(n) {
					p := coneOf[a]
					if p < 0 || p == int32(c) || seen[p] == int32(c)+1 {
						continue
					}
					seen[p] = int32(c) + 1
					f(p, int32(c))
				}
			}
		}
	}
	eachEdge(func(p, c int32) {
		cs.succOff[p+1]++
		cs.ndeps[c]++
	})
	for c := 0; c < nc; c++ {
		cs.succOff[c+1] += cs.succOff[c]
		seen[c] = 0
	}
	cs.succ = resize(cs.succ, int(cs.succOff[nc]))
	fill := cs.path // borrowed as the per-producer write cursor
	eachEdge(func(p, c int32) {
		cs.succ[cs.succOff[p]+fill[p]] = c
		fill[p]++
	})
	// The DFS cut is a topological order of the cone graph.
	for c := nc - 1; c >= 0; c-- {
		longest := int32(0)
		for _, q := range cs.succ[cs.succOff[c]:cs.succOff[c+1]] {
			if cs.path[q] > longest {
				longest = cs.path[q]
			}
		}
		cs.path[c] = longest + 1
		cs.lastDep[c] = farBack
	}
}

// schedule bins the cones of the DFS cut (dfsBlock[c] is the DFS
// block cone c was cut for; keys carries each sink's partition in its high
// word) into the blocks that are executed, and assigns every cone its
// subtree slot. The blocks share the cones' node lists; nothing is copied
// but the Subgraph headers.
//
// It also returns the order's issue span: execs issue one per cycle, each
// at least D+1 cycles after every block it reads,
//
//	issue[s] = max(issue[s−1]+1, max over producer blocks p of issue[p]+D+1),
//
// and the span is issue[last]+1. It is what decompose compares the two
// cuts by: it sees the exec chain but not the loads, copies and stores
// steps 2–4 add (DESIGN.md "Step 1: two cuts, one chosen").
func (cs *coneSched) schedule(g *dag.Graph, cfg arch.Config, keys []int64, cones []Subgraph, dfsBlock []int32) ([]*Block, int32) {
	nc := int32(len(cones))
	cs.lat = int32(cfg.D + 1)
	cs.far = idHeap{items: cs.far.items[:0], less: cs.byPath}
	cs.near = idHeap{items: cs.near.items[:0], less: cs.byLastDep}
	cs.buildConeGraph(g, cones)
	part := func(c int32) int64 { return keys[cones[c].Sink] >> 32 }

	out := make([]Subgraph, 0, nc)
	cs.placed = resize(cs.placed, int(nc))
	placed := cs.placed
	ends := cs.ends[:0]                // ends[s] = len(out) when block s closed
	issue := cs.issue[:0]              // issue[s]: block s's exec issue cycle
	cur, misfits := cs.cur, cs.misfits // cones placed in / too deep for the open block
	slots := newSlotPool(cfg)
	// lo is the oldest unplaced cone; cones [0, hi) have been admitted to
	// the window. Admission stops at the first cone of a later partition
	// than lo's, so no block mixes partitions that the DFS cut kept apart.
	lo, hi := int32(0), int32(0)
	for s := int32(0); lo < nc; s++ {
		for hi < nc && dfsBlock[hi] <= dfsBlock[lo]+coneWindow && part(hi) <= part(lo) {
			if cs.ndeps[hi] == 0 {
				cs.push(hi, s)
			}
			hi++
		}
		// Cone lo is always ready here (its producers were cut before it,
		// so they sit in closed blocks) and fits an empty block, so every
		// block takes at least one cone.
		slots.reset(cfg)
		cur, misfits = cur[:0], misfits[:0]
		for slots.maxDepth() >= 1 {
			c := cs.pop(s)
			if c < 0 {
				break
			}
			if cones[c].Depth > slots.maxDepth() {
				misfits = append(misfits, c)
				continue
			}
			cones[c].Root, _ = slots.alloc(cones[c].Depth)
			out = append(out, cones[c])
			placed[c] = true
			cur = append(cur, c)
		}
		for _, c := range misfits {
			cs.push(c, s+1)
		}
		at := int32(0)
		if s > 0 {
			at = issue[s-1] + 1
		}
		for _, c := range cur {
			if p := cs.lastDep[c]; p >= 0 && issue[p]+cs.lat > at {
				at = issue[p] + cs.lat
			}
		}
		issue = append(issue, at)
		// Close block s: consumers whose last producer it held become
		// ready for block s+1 (once inside the window).
		for _, c := range cur {
			for _, q := range cs.succ[cs.succOff[c]:cs.succOff[c+1]] {
				cs.lastDep[q] = s
				if cs.ndeps[q]--; cs.ndeps[q] == 0 && q < hi {
					cs.push(q, s+1)
				}
			}
		}
		ends = append(ends, int32(len(out)))
		for lo < nc && placed[lo] {
			lo++
		}
	}

	blocks := make([]*Block, len(ends))
	slab := make([]Block, len(ends))
	first := int32(0)
	for s, end := range ends {
		slab[s].Subgraphs = out[first:end:end]
		blocks[s] = &slab[s]
		first = end
	}
	span := int32(0)
	if len(issue) > 0 {
		span = issue[len(issue)-1] + 1
	}
	cs.ends, cs.issue, cs.cur, cs.misfits = ends, issue, cur, misfits
	return blocks, span
}
